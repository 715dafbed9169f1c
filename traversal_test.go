package ltqp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltqp/internal/linkqueue"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

// newFateTraversal is a traversal with just enough state for next, fate and
// settle: a queue, the guard and a recorder its events fold into, no
// dereferencer.
func newFateTraversal(cfg Config, seeds []string) *traversal {
	rec := metrics.NewRecorder()
	t := &traversal{e: New(cfg), ctx: context.Background(), queue: linkqueue.NewFIFO(),
		guard: newLimitGuard(cfg.Limits, seeds), recorder: rec, m: obs.On(nil),
		events: obs.NewEmitter(nil, 1, nil, rec, nil, nil, nil)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// TestLinkFate pins the one decision every discovered link goes through: all
// seven fates, their precedence, and which of them are defense firings.
func TestLinkFate(t *testing.T) {
	const doc = "http://pod.example/doc"
	tr := newFateTraversal(Config{Lenient: true, MaxDepth: 2, Limits: TraversalLimits{
		ScopeToSeeds: true, MaxLinksPerDoc: 2, MaxQueuedLinks: 3,
	}}, []string{doc})
	tr.push(linkqueue.Link{URL: doc, Reason: "seed", Extractor: "seed"})

	found := func(url string, depth int) linkqueue.Link {
		return linkqueue.Link{URL: url, Via: doc, Reason: "match", Extractor: "match", Depth: depth}
	}
	for _, c := range []struct {
		name      string
		link      linkqueue.Link
		requested string
		accepted  int
		fate      string
		trip      string // limit kind of the trip fired, "" for none
	}{
		{"a new in-scope link is followed", found("http://pod.example/a", 1), doc, 0, obs.EdgeFollowed, ""},
		{"a URL seen before is a duplicate", found("http://pod.example/a", 1), doc, 1, obs.EdgeDuplicate, ""},
		{"the normalized alias of a seen URL too", found("HTTP://POD.example:80/a", 1), doc, 1, obs.EdgeDuplicate, ""},
		{"a link to its own document is self", found(doc, 1), doc, 1, obs.EdgeSelf, ""},
		{"so is one to the pre-redirect URL", found("http://pod.example/alias", 1), "http://pod.example/alias", 1, obs.EdgeSelf, ""},
		{"past MaxDepth is depth-pruned", found("http://pod.example/deep", 3), doc, 1, obs.EdgeDepthPruned, ""},
		{"depth is checked before scope", found("http://evil.example/deep", 3), doc, 1, obs.EdgeDepthPruned, ""},
		{"off the seed origins is scope-pruned, a trip", found("http://evil.example/x", 1), doc, 1, obs.EdgeScopePruned, limitScope},
		{"the same origin again: pruned, trip already reported", found("http://evil.example/y", 1), doc, 1, obs.EdgeScopePruned, ""},
		{"another origin trips again", found("http://evil2.example/x", 1), doc, 1, obs.EdgeScopePruned, limitScope},
		{"a document at its fanout cap is fanout-pruned, a trip", found("http://pod.example/b", 1), doc, 2, obs.FateFanoutPruned, limitFanout},
		{"once per document", found("http://pod.example/c", 1), doc, 2, obs.FateFanoutPruned, ""},
		{"under the caps the third distinct link is followed", found("http://pod.example/b", 1), doc, 1, obs.EdgeFollowed, ""},
		{"the queue cap counts every link ever accepted: a trip", found("http://pod.example/c", 1), doc, 1, obs.FateQueueCapPruned, limitQueueCap},
		{"once per traversal", found("http://pod.example/d", 1), doc, 1, obs.FateQueueCapPruned, ""},
		{"dedup only happens at the queue, after the caps", found("http://pod.example/a", 1), doc, 1, obs.FateQueueCapPruned, ""},
	} {
		fate, trip := tr.fate(c.link, c.requested, c.accepted)
		kind := ""
		if trip != nil {
			kind = trip.Kind
		}
		if fate != c.fate || kind != c.trip {
			t.Errorf("%s: fate = %q trip = %q, want %q / %q", c.name, fate, kind, c.fate, c.trip)
		}
		tr.settle(c.link, fate, trip)
	}
	if got, want := tr.queue.Seen(), 3; got != want {
		t.Errorf("queue accepted %d links, want %d (the seed and the two followed)", got, want)
	}
	if trips := tr.recorder.Degradation().LimitTrips; len(trips) != 4 {
		t.Errorf("recorded %d trips, want 4: %v", len(trips), trips)
	}
	if tr.err != nil {
		t.Errorf("a lenient traversal failed on a trip: %v", tr.err)
	}
}

// TestOriginBudgetPrunesAtPop covers the one fate decided when a link's turn
// comes rather than at discovery, and the strict-mode consequence of a trip:
// next stops handing out links.
func TestOriginBudgetPrunesAtPop(t *testing.T) {
	tr := newFateTraversal(Config{Limits: TraversalLimits{MaxDocsPerOrigin: 1}}, nil)
	for _, u := range []string{"http://pod.example/a", "http://pod.example/b", "http://other.example/c"} {
		tr.push(linkqueue.Link{URL: u, Reason: "seed", Extractor: "seed"})
	}
	if l, ok := tr.next(); !ok || l.URL != "http://pod.example/a" {
		t.Fatalf("first link = %v %v", l, ok)
	}
	// /b is refused (its origin served its one document); the refusal is a
	// trip, which fails this non-lenient traversal before /c is handed out.
	if l, ok := tr.next(); ok {
		t.Fatalf("next handed out %v after a strict trip", l)
	}
	var lerr *TraversalLimitError
	if !errors.As(tr.err, &lerr) || lerr.Trip.Kind != limitDocsPerOrigin {
		t.Fatalf("traversal error = %v, want a max-docs-per-origin TraversalLimitError", tr.err)
	}
	if tr.active != 1 || tr.fetched != 1 {
		t.Errorf("active = %d fetched = %d, want 1/1: a refused link is not a fetch", tr.active, tr.fetched)
	}
}

// goroutineRecorder is an HTTP transport that notes which goroutine sent
// each request — http.Client.Do runs the round trip on its caller, the
// goroutine that visits the document.
type goroutineRecorder struct {
	next http.RoundTripper
	mu   sync.Mutex
	ids  map[string]bool
	docs int
}

func (g *goroutineRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	buf := make([]byte, 64)
	id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1] // "goroutine 42 [running]:"
	g.mu.Lock()
	g.ids[id] = true
	g.docs++
	g.mu.Unlock()
	return g.next.RoundTrip(r)
}

// inflightGauge counts the requests a handler is serving at once.
type inflightGauge struct{ cur, peak atomic.Int64 }

func (g *inflightGauge) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := g.cur.Add(1)
		defer g.cur.Add(-1)
		for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
		}
		next.ServeHTTP(w, r)
	})
}

// TestWorkerPoolSize: a traversal visits its documents on MaxConcurrent
// goroutines, however many documents there are, and never has more requests
// in flight at the pod server than that.
func TestWorkerPoolSize(t *testing.T) {
	gauge := &inflightGauge{}
	env := simenv.NewWith(solidbench.SmallConfig(), gauge.wrap)
	defer env.Close()
	env.PodServer.Latency = time.Millisecond // long enough for fetches to overlap
	q := env.Dataset.Discover(8, 1)
	for _, n := range []int{1, 2, 6} {
		gauge.peak.Store(0)
		rec := &goroutineRecorder{next: env.Client().Transport, ids: map[string]bool{}}
		e := New(Config{Client: &http.Client{Transport: rec}, Lenient: true, MaxConcurrent: n})
		if _, err := e.Select(context.Background(), q.Text); err != nil {
			t.Fatal(err)
		}
		if rec.docs < 10*n {
			t.Fatalf("MaxConcurrent %d: only %d documents visited", n, rec.docs)
		}
		if len(rec.ids) > n {
			t.Errorf("MaxConcurrent %d: %d documents were visited on %d goroutines", n, rec.docs, len(rec.ids))
		}
		if peak := gauge.peak.Load(); peak > int64(n) || (n > 1 && peak < 2) {
			t.Errorf("MaxConcurrent %d: peak concurrent pod-server requests = %d", n, peak)
		}
	}
}

// TestTraversalLeavesNothingBehind ends queries every way a traversal can
// end early and checks what must hold afterwards: no goroutine the query
// started is still running, and the process-wide queue-depth gauge is back
// where it was although links were left in the queue.
func TestTraversalLeavesNothingBehind(t *testing.T) {
	env := newTestEnv(t)
	env.PodServer.Latency = 2 * time.Millisecond
	observer := obs.NewObserver()
	multiPod := env.Dataset.Discover(8, 1).Text
	_, full, err := selectAll(context.Background(), New(Config{Client: env.Client(), Lenient: true}), multiPod, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		cfg     Config
		query   string
		cancel  bool // cancel the context once the first documents are in
		wantErr bool
	}{
		{name: "cancelled mid-traversal", cfg: Config{Lenient: true}, query: multiPod, cancel: true},
		{name: "LIMIT satisfied", cfg: Config{Lenient: true}, query: multiPod + " LIMIT 1"},
		// The seed is the WebID profile of a person the dataset does not
		// have: a 404, which a non-lenient traversal stops on.
		{name: "strict first error", cfg: Config{}, wantErr: true,
			query: "SELECT ?o WHERE { <" + env.Server.URL + "/pods/nobody/profile/card#me> ?p ?o }"},
		{name: "MaxDocuments cap", cfg: Config{Lenient: true, MaxDocuments: 5}, query: multiPod},
	} {
		t.Run(c.name, func(t *testing.T) {
			env.Client().CloseIdleConnections()
			var before int
			settle(t, "goroutine count does not settle before the query", func() bool {
				n := runtime.NumGoroutine()
				stable := n == before
				before = n
				return stable
			})
			c.cfg.Client, c.cfg.Obs = env.Client(), observer
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			x, err := New(c.cfg).Query(ctx, c.query)
			if err != nil {
				t.Fatal(err)
			}
			if c.cancel {
				settle(t, "traversal never started", func() bool { return x.Metrics().Stats().Requests >= 3 })
				cancel()
			}
			for range x.Results {
			}
			x.Close()
			if gotErr := x.Err() != nil; gotErr != c.wantErr {
				t.Errorf("Err() = %v, want an error: %v", x.Err(), c.wantErr)
			}
			if got, all := x.Metrics().Stats().Requests, full.Metrics().Stats().Requests; got >= all {
				t.Errorf("%d requests, as many as the uninterrupted traversal (%d): it was not cut short", got, all)
			}
			env.Client().CloseIdleConnections()
			settle(t, "goroutines outlive the query", func() bool { return runtime.NumGoroutine() <= before })
			settle(t, "link queue depth gauge does not return to 0", func() bool {
				return observer.Metrics.LinkQueueDepth.Value() == 0
			})
		})
	}
}

// settle polls until done reports true, failing the test with every
// goroutine's stack when it does not within ten seconds.
func settle(t *testing.T, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestStrictLimitEndsCleanly pins that a non-lenient query whose LIMIT is
// satisfied ends without an error: the pipeline cancels the traversal it no
// longer needs, and that cancellation — unlike the caller's own — is not a
// failure of the query. (It used to race into Err() == context.Canceled.)
// Run with -race -count=200.
func TestStrictLimitEndsCleanly(t *testing.T) {
	// A chain of documents, each slow enough that the first row is out while
	// later fetches are still in flight.
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/doc"))
		if n > 0 {
			time.Sleep(time.Millisecond)
		}
		w.Header().Set("Content-Type", "text/turtle")
		fmt.Fprintf(w, "<> <http://example.org/p> %d ; <http://www.w3.org/2000/01/rdf-schema#seeAlso> <%s/doc%d>, <%s/doc%d> .\n",
			n, srv.URL, 2*n+1, srv.URL, 2*n+2)
	}))
	defer srv.Close()
	const query = "SELECT ?o WHERE { ?s <http://example.org/p> ?o } LIMIT 1"
	e := New(Config{Client: srv.Client()})
	rows, x, err := selectAll(context.Background(), e, query, []string{srv.URL + "/doc0"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("%d rows, Select error %v; want 1 row and no error", len(rows), err)
	}
	// Traversal closes the store last, after it has reported how it ended.
	if err := x.store.WaitClosed(context.Background()); err != nil {
		t.Fatal(err)
	}
	if x.Err() != nil {
		t.Fatalf("Err() = %v after a satisfied LIMIT, want nil", x.Err())
	}

}

// TestDefaultClientReusesConnections pins the engine's own transport: with
// no Client configured, a 100-document walk of one origin by the default six
// workers opens at most six connections. (http.DefaultClient keeps two idle
// connections per host, so four of every six were closed after each round of
// fetches and dialed again for the next.)
func TestDefaultClientReusesConnections(t *testing.T) {
	const docs = 100
	var dialed atomic.Int64
	var srv *httptest.Server
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Long enough that every worker's first dial is done before any
		// request is: the transport dials whenever no connection is idle at
		// that instant, so a request outrunning a dial would count one more.
		time.Sleep(5 * time.Millisecond)
		w.Header().Set("Content-Type", "text/turtle")
		fmt.Fprintf(w, "<> <http://example.org/p> %q .\n", r.URL.Path)
		if r.URL.Path == "/doc0" {
			for i := 1; i < docs; i++ {
				fmt.Fprintf(w, "<> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <%s/doc%d> .\n", srv.URL, i)
			}
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dialed.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	e := New(Config{})
	defer e.cfg.Client.CloseIdleConnections()
	rows, x, err := selectAll(context.Background(), e, "SELECT ?o WHERE { ?s <http://example.org/p> ?o }", []string{srv.URL + "/doc0"})
	if err != nil || x.Err() != nil || len(rows) != docs {
		t.Fatalf("%d rows, errors %v / %v; want %d rows", len(rows), err, x.Err(), docs)
	}
	if got := dialed.Load(); got > defaultMaxConcurrent {
		t.Errorf("the walk opened %d connections, want at most %d (one per worker)", got, defaultMaxConcurrent)
	}
}
