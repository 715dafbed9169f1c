package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltqp/internal/deref"
	"ltqp/internal/metrics"
)

// deadOrigin answers one URL the way the dereferencer reports an origin: a
// document while status is 200, otherwise the *deref.Error of that status.
type deadOrigin struct {
	url     string
	status  atomic.Int64
	fetches atomic.Int64
	delay   time.Duration
}

func newDeadOrigin(status int) *deadOrigin {
	o := &deadOrigin{url: "http://pod/gone"}
	o.status.Store(int64(status))
	return o
}

func (o *deadOrigin) fetch(ctx context.Context, vals deref.Validators) (*deref.Result, error) {
	o.fetches.Add(1)
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	status := int(o.status.Load())
	if status == http.StatusOK {
		if vals.ETag == `"v1"` {
			return &deref.Result{URL: o.url, FinalURL: o.url, Status: 304, NotModified: true, Validators: vals}, nil
		}
		return &deref.Result{URL: o.url, FinalURL: o.url, Status: 200, Bytes: 1000,
			Validators: deref.Validators{ETag: `"v1"`}}, nil
	}
	return nil, &deref.Error{URL: o.url, Status: status, Retryable: deref.RetryableStatus(status)}
}

func (o *deadOrigin) get(c *SharedCache) (*deref.Result, bool, error) {
	return c.Dereference(context.Background(), "k", o.url, o.fetch)
}

func TestNegativeEntryAnswersWithoutFetching(t *testing.T) {
	for _, status := range []int{http.StatusNotFound, http.StatusGone} {
		c := newTestCache(newFakeClock(), 1<<20, time.Minute)
		o := newDeadOrigin(status)
		_, hit, first := o.get(c)
		if first == nil || hit {
			t.Fatalf("%d: first access: hit=%v err=%v", status, hit, first)
		}
		for i := 0; i < 3; i++ {
			res, hit, err := o.get(c)
			if res != nil || !hit || err != first {
				t.Fatalf("%d: negative hit = (%v, %v, %v), want the stored error %v", status, res, hit, err, first)
			}
		}
		// Lookup needs no fetch function to say the same.
		if res, hit, err := c.Lookup(context.Background(), "k", o.url); res != nil || !hit || err != first {
			t.Fatalf("%d: Lookup = (%v, %v, %v)", status, res, hit, err)
		}
		if got := o.fetches.Load(); got != 1 {
			t.Fatalf("%d: origin fetches = %d, want 1", status, got)
		}
		// Hits and HitRatio keep meaning documents.
		st := c.Stats()
		if st.NegativeHits != 4 || st.Hits != 0 || st.Misses != 1 || st.HitRatio() != 0 ||
			st.Documents != 1 || st.Bytes != negativeCost || st.Dedups != 0 {
			t.Fatalf("%d: stats = %+v", status, st)
		}
	}
}

func TestStaleNegativeEntryRefetchesInFull(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	o := newDeadOrigin(http.StatusNotFound)
	fetchUnconditionally := func(ctx context.Context, vals deref.Validators) (*deref.Result, error) {
		if !vals.Zero() {
			t.Errorf("refetch of a negative entry sent validators %+v", vals)
		}
		return o.fetch(ctx, vals)
	}
	get := func() (bool, error) {
		_, hit, err := c.Dereference(context.Background(), "k", o.url, fetchUnconditionally)
		return hit, err
	}
	get()
	clock.Advance(2 * time.Minute) // TTL
	if hit, err := get(); hit || err == nil {
		t.Fatalf("after TTL expiry: hit=%v err=%v, want a refetch", hit, err)
	}
	c.Invalidate() // epoch
	if hit, err := get(); hit || err == nil {
		t.Fatalf("after Invalidate: hit=%v err=%v, want a refetch", hit, err)
	}
	if hit, _ := get(); !hit {
		t.Fatal("the refetched answer must be a fresh entry again")
	}
	if got := o.fetches.Load(); got != 3 {
		t.Fatalf("origin fetches = %d, want 3", got)
	}
	if st := c.Stats(); st.Revalidations != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v: a negative entry is refetched, never revalidated", st)
	}
}

func TestNegativeAndPositiveEntriesReplaceEachOther(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	o := newDeadOrigin(http.StatusNotFound)

	o.get(c) // 404 stored
	o.status.Store(http.StatusOK)
	if _, hit, err := o.get(c); !hit || err == nil {
		t.Fatal("a fresh negative entry answers whatever the origin says by now")
	}
	clock.Advance(2 * time.Minute)
	doc, hit, err := o.get(c) // 404 -> 200
	if err != nil || hit || doc == nil {
		t.Fatalf("404->200: (%v, %v, %v)", doc, hit, err)
	}
	if again, hit, err := o.get(c); again != doc || !hit || err != nil {
		t.Fatalf("the document replaced the negative entry: (%v, %v, %v)", again, hit, err)
	}
	if st := c.Stats(); st.Documents != 1 || st.Bytes != 1000 {
		t.Fatalf("stats after 404->200 = %+v", st)
	}

	for _, status := range []int{http.StatusNotFound, http.StatusGone} {
		o.status.Store(http.StatusOK)
		clock.Advance(2 * time.Minute)
		if _, _, err := o.get(c); err != nil { // a document again, by 304 or in full
			t.Fatal(err)
		}
		o.status.Store(int64(status))
		clock.Advance(2 * time.Minute)
		if _, hit, err := o.get(c); hit || err == nil { // 200 -> 404/410, revalidating
			t.Fatalf("200->%d: hit=%v err=%v", status, hit, err)
		}
		before := o.fetches.Load()
		_, hit, err := o.get(c)
		var de *deref.Error
		if !hit || !errors.As(err, &de) || de.Status != status || o.fetches.Load() != before {
			t.Fatalf("200->%d: the negative entry did not replace the document: hit=%v err=%v", status, hit, err)
		}
		if st := c.Stats(); st.Documents != 1 || st.Bytes != negativeCost {
			t.Fatalf("stats after 200->%d = %+v", status, st)
		}
	}
}

func TestConcurrentDeadLinkMakesOneOriginRequest(t *testing.T) {
	c := newTestCache(newFakeClock(), 1<<20, time.Minute)
	o := newDeadOrigin(http.StatusNotFound)
	o.delay = 20 * time.Millisecond
	const k = 32
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, hit, err := o.get(c)
			if res != nil || gone(err) == nil {
				t.Errorf("got (%v, %v), want the 404", res, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := o.fetches.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want 1", got)
	}
	// Everyone but the leader was served without a request of their own.
	st := c.Stats()
	if hits.Load() != k-1 || st.Dedups+st.NegativeHits != k-1 || st.DuplicateInflight != 0 {
		t.Fatalf("hits = %d, stats = %+v", hits.Load(), st)
	}
}

func TestOnlyTerminalAbsenceIsStored(t *testing.T) {
	url := "http://pod/doc"
	failures := map[string]error{
		"401":       &deref.Error{URL: url, Status: 401},
		"403":       &deref.Error{URL: url, Status: 403},
		"429":       &deref.Error{URL: url, Status: 429, Retryable: true},
		"500":       &deref.Error{URL: url, Status: 500, Retryable: true},
		"503":       &deref.Error{URL: url, Status: 503, Retryable: true},
		"transport": &deref.Error{URL: url, Retryable: true, Err: errors.New("connection reset")},
		"parse":     &deref.Error{URL: url, Status: 200, Err: errors.New("syntax error")},
		"body":      &deref.Error{URL: url, Status: 404, Retryable: true, Err: errors.New("reading body: EOF")},
		"cancelled": context.Canceled,
		"wrapped":   fmt.Errorf("deref: %w", context.DeadlineExceeded),
	}
	for name, failure := range failures {
		c := newTestCache(newFakeClock(), 1<<20, time.Minute)
		fetches := 0
		fetch := func(context.Context, deref.Validators) (*deref.Result, error) {
			fetches++
			return nil, failure
		}
		for i := 0; i < 2; i++ {
			if _, hit, err := c.Dereference(context.Background(), "k", url, fetch); hit || !errors.Is(err, failure) {
				t.Errorf("%s: access %d: hit=%v err=%v", name, i, hit, err)
			}
		}
		if st := c.Stats(); fetches != 2 || st.Documents != 0 || st.NegativeHits != 0 {
			t.Errorf("%s: fetches = %d, stats = %+v: the failure must not be stored", name, fetches, st)
		}
	}
}

func TestDeadLinkFloodStaysInsideTheBudget(t *testing.T) {
	const room = 10
	c := newTestCache(newFakeClock(), room*negativeCost, time.Minute)
	fetches := map[string]int{}
	get := func(i int) bool {
		url := fmt.Sprintf("http://pod/minted/%d", i)
		_, hit, _ := c.Dereference(context.Background(), url, url,
			func(context.Context, deref.Validators) (*deref.Result, error) {
				fetches[url]++
				return nil, &deref.Error{URL: url, Status: http.StatusNotFound}
			})
		return hit
	}
	for i := 0; i < 100; i++ {
		get(i)
		if c.Bytes() > room*negativeCost {
			t.Fatalf("after %d dead links the cache holds %d bytes, budget %d", i+1, c.Bytes(), room*negativeCost)
		}
	}
	if st := c.Stats(); st.Documents != room || st.Evictions != 100-room {
		t.Fatalf("stats = %+v, want %d entries and %d evictions", st, room, 100-room)
	}
	// Least recently used went first: the last ten are still hits.
	for i := 100 - room; i < 100; i++ {
		if !get(i) {
			t.Fatalf("dead link %d was evicted before older ones", i)
		}
	}
	if get(0) {
		t.Fatal("the oldest dead link survived a flood ten times the budget")
	}
}

// podWithPrivateDocument serves /private only to owner; for anybody else the
// document does not exist.
func podWithPrivateDocument(t *testing.T, owner string) (*httptest.Server, *atomic.Int64) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.Header.Get("X-WebID") != owner {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		fmt.Fprint(w, `<#me> <http://x/p> "secret" .`)
	}))
	t.Cleanup(ts.Close)
	return ts, &requests
}

// Absence is partitioned by requesting identity exactly as documents are: the
// 404 a pod shows a stranger must not hide the document from its owner, nor
// the owner's copy reach the stranger.
func TestNegativeEntriesArePartitionedByIdentity(t *testing.T) {
	const owner = "http://pod/alice#me"
	ts, requests := podWithPrivateDocument(t, owner)
	c := NewSharedCache(SharedCacheOptions{})
	anonymous := &deref.Dereferencer{Client: ts.Client(), Shared: c}
	alice := &deref.Dereferencer{Client: ts.Client(), Shared: c,
		Auth: &deref.Credentials{WebID: owner, Token: "t"}}
	url := ts.URL + "/private"
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := anonymous.Dereference(ctx, url, "", "seed"); gone(err) == nil {
			t.Fatalf("anonymous access %d: err = %v, want the 404", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		res, err := alice.Dereference(ctx, url, "", "seed")
		if err != nil || len(res.DecodedTriples()) != 1 {
			t.Fatalf("owner access %d behind a cached anonymous 404: %v, %v", i, res, err)
		}
	}
	if _, err := anonymous.Dereference(ctx, url, "", "seed"); gone(err) == nil {
		t.Fatalf("anonymous access after the owner's: err = %v, want the 404 still", err)
	}
	if got := requests.Load(); got != 2 {
		t.Errorf("origin requests = %d, want one per identity", got)
	}
	if st := c.Stats(); st.Documents != 2 || st.NegativeHits != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want one entry per identity", st)
	}
}

// The query's own record does not depend on who answered: a negative hit is
// one waterfall row with the status and error of the fetch that found the
// dead link, marked cached, and it counts as a failed request, not as a
// cache hit — so Requests - CacheHits - Failed is what the network delivered.
func TestNegativeHitIsRecordedLikeTheFetchThatFoundIt(t *testing.T) {
	ts, requests := podWithPrivateDocument(t, "nobody")
	c := NewSharedCache(SharedCacheOptions{})
	url := ts.URL + "/private"
	run := func() (*metrics.Recorder, error) {
		rec := metrics.NewRecorder()
		d := &deref.Dereferencer{Client: ts.Client(), Shared: c, Recorder: rec}
		_, _, err := d.DereferenceTracked(context.Background(), url, "http://parent", "match")
		return rec, err
	}
	cold, coldErr := run()
	warm, warmErr := run()
	if requests.Load() != 1 {
		t.Fatalf("origin requests = %d, want 1", requests.Load())
	}
	if coldErr == nil || warmErr == nil || coldErr.Error() != warmErr.Error() {
		t.Fatalf("errors cold %v, warm %v: want the same", coldErr, warmErr)
	}
	cr, wr := cold.Requests(), warm.Requests()
	if len(cr) != 1 || len(wr) != 1 {
		t.Fatalf("waterfall rows cold %d, warm %d, want 1 each", len(cr), len(wr))
	}
	if w := wr[0]; !w.Cached || w.Status != 404 || w.Err != cr[0].Err || w.Duration() != 0 ||
		w.URL != url || w.Parent != "http://parent" || w.Reason != "match" || w.Attempt != 1 {
		t.Errorf("warm row = %+v, cold row = %+v", w, cr[0])
	}
	if cr[0].Cached {
		t.Errorf("cold row marked cached: %+v", cr[0])
	}
	cs, ws := cold.Stats(), warm.Stats()
	if cs.Requests != 1 || cs.Failed != 1 || cs.CacheHits != 0 || cs.NegativeHits != 0 {
		t.Errorf("cold stats = %+v", cs)
	}
	if ws.Requests != 1 || ws.Failed != 1 || ws.CacheHits != 0 || ws.NegativeHits != 1 {
		t.Errorf("warm stats = %+v", ws)
	}
	if c, w := cold.Degradation().FailedDocuments, warm.Degradation().FailedDocuments; len(w) != 1 || c[0] != w[0] {
		t.Errorf("FailedDocuments cold %v, warm %v", c, w)
	}
	if st := c.Stats(); st.Dedups != 0 || st.NegativeHits != 1 {
		t.Errorf("cache stats = %+v: a negative hit is not a dedup", st)
	}
}
