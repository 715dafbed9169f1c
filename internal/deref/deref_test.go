package deref

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ltqp/internal/metrics"
	"ltqp/internal/rdf"
)

func newServer(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

func TestDereferenceTurtle(t *testing.T) {
	var gotAccept string
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		gotAccept = r.Header.Get("Accept")
		w.Header().Set("Content-Type", "text/turtle; charset=utf-8")
		w.Write([]byte(`<#me> <http://xmlns.com/foaf/0.1/name> "Alice" . <rel> <http://p> <http://o> .`))
	})
	d := &Dereferencer{Client: ts.Client(), Recorder: metrics.NewRecorder()}
	res, err := d.Dereference(context.Background(), ts.URL+"/card", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gotAccept, "text/turtle") {
		t.Errorf("Accept = %s", gotAccept)
	}
	if len(res.Triples) != 2 {
		t.Fatalf("triples = %v", res.Triples)
	}
	// Relative IRIs resolve against the final URL.
	if res.Triples[0].S != rdf.NewIRI(ts.URL+"/card#me") {
		t.Errorf("subject = %v", res.Triples[0].S)
	}
	if res.Triples[1].S != rdf.NewIRI(ts.URL+"/rel") {
		t.Errorf("relative subject = %v", res.Triples[1].S)
	}
	// Metrics recorded.
	reqs := d.Recorder.Requests()
	if len(reqs) != 1 || reqs[0].Triples != 2 || reqs[0].Status != 200 {
		t.Errorf("metrics = %+v", reqs)
	}
}

func TestDereferenceStatusError(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	})
	rec := metrics.NewRecorder()
	d := &Dereferencer{Client: ts.Client(), Recorder: rec}
	_, err := d.Dereference(context.Background(), ts.URL+"/missing", "", "match")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v", err)
	}
	reqs := rec.Requests()
	if len(reqs) != 1 || reqs[0].Err == "" {
		t.Errorf("failure not recorded: %+v", reqs)
	}
}

func TestDereferenceParseError(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte("this is not turtle @@@"))
	})
	d := &Dereferencer{Client: ts.Client()}
	if _, err := d.Dereference(context.Background(), ts.URL, "", "seed"); err == nil {
		t.Error("parse error expected")
	}
}

func TestDereferenceUnsupportedContentType(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html></html>"))
	})
	d := &Dereferencer{Client: ts.Client()}
	if _, err := d.Dereference(context.Background(), ts.URL, "", "seed"); err == nil {
		t.Error("content-type error expected")
	}
}

func TestDereferenceAuthHeaders(t *testing.T) {
	var auth, webid string
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		auth = r.Header.Get("Authorization")
		webid = r.Header.Get("X-WebID")
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(""))
	})
	d := &Dereferencer{
		Client: ts.Client(),
		Auth:   &Credentials{WebID: "https://me.example/card#me", Token: "sig:https://me.example/card#me"},
	}
	if _, err := d.Dereference(context.Background(), ts.URL, "", "seed"); err != nil {
		t.Fatal(err)
	}
	if auth != "Bearer sig:https://me.example/card#me" || webid != "https://me.example/card#me" {
		t.Errorf("auth headers = %q / %q", auth, webid)
	}
}

func TestDereferenceBlankNodeScoping(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`_:b <http://p> "v" .`))
	})
	d := &Dereferencer{Client: ts.Client()}
	r1, err := d.Dereference(context.Background(), ts.URL+"/d1", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Dereference(context.Background(), ts.URL+"/d2", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	if r1.DecodedTriples()[0].S == r2.DecodedTriples()[0].S {
		t.Errorf("blank nodes from different documents must not collide: %v", r1.DecodedTriples()[0].S)
	}
}

func TestDereferenceRedirect(t *testing.T) {
	var ts *httptest.Server
	ts = newServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/old" {
			http.Redirect(w, r, ts.URL+"/new", http.StatusFound)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`<doc> <http://p> <http://o> .`))
	})
	d := &Dereferencer{Client: ts.Client()}
	res, err := d.Dereference(context.Background(), ts.URL+"/old", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != ts.URL+"/new" {
		t.Errorf("FinalURL = %s", res.FinalURL)
	}
	// Relative IRIs resolve against the final (post-redirect) URL.
	if res.DecodedTriples()[0].S != rdf.NewIRI(ts.URL+"/doc") {
		t.Errorf("subject = %v", res.DecodedTriples()[0].S)
	}
}

func TestDereferenceContextCancelled(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	d := &Dereferencer{Client: ts.Client()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Dereference(ctx, ts.URL, "", "seed"); err == nil {
		t.Error("cancelled context should fail")
	}
}

// mapCache is the smallest SharedCache: a map with no freshness rule and no
// singleflight — enough to drive the dereferencer's cache-hit path.
type mapCache map[string]*Result

func (c mapCache) Lookup(ctx context.Context, key, url string) (*Result, bool, error) {
	res, ok := c[key]
	return res, ok, nil
}

func (c mapCache) Dereference(ctx context.Context, key, url string, fetch FetchFunc) (*Result, bool, error) {
	if res, ok := c[key]; ok {
		return res, true, nil
	}
	res, err := fetch(ctx, Validators{})
	if err == nil {
		c[key] = res
	}
	return res, false, err
}

func TestSharedCacheHitsAreRecorded(t *testing.T) {
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`<#me> <http://p> "v" .`))
	})
	d := &Dereferencer{Client: ts.Client(), Shared: mapCache{}, Recorder: metrics.NewRecorder()}
	for i := 0; i < 3; i++ {
		res, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Triples) != 1 {
			t.Fatalf("triples = %d", len(res.Triples))
		}
	}
	if hits != 1 {
		t.Errorf("server hits = %d, want 1", hits)
	}
	// Cached requests are marked in the metrics.
	cached := 0
	for _, r := range d.Recorder.Requests() {
		if r.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("cached metric rows = %d", cached)
	}
}

func TestCacheKeyIncludesIdentity(t *testing.T) {
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(``))
	})
	cache := mapCache{}
	anon := &Dereferencer{Client: ts.Client(), Shared: cache}
	alice := &Dereferencer{Client: ts.Client(), Shared: cache,
		Auth: &Credentials{WebID: "https://a/#me", Token: "sig:https://a/#me"}}
	anon.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
	alice.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
	if hits != 2 {
		t.Errorf("identity-scoped keys: server hits = %d, want 2", hits)
	}
}

// An engine-configured Dereferencer hands out the document as its segment
// only, fetched or cached; one with a Recorder still gets Triples, decoded
// from the segment, on a fetch and on a hit of an entry another dictionary
// filled. The cached Result itself never holds them.
func TestTriplesOnlyForRecorder(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`<#me> <http://p> "v" ; <http://www.w3.org/2000/01/rdf-schema#seeAlso> <other> .`))
	})
	want := []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI(ts.URL+"/doc#me"), rdf.NewIRI("http://p"), rdf.NewLiteral("v")),
		rdf.NewTriple(rdf.NewIRI(ts.URL+"/doc#me"), rdf.NewIRI(rdf.RDFSSeeAlso), rdf.NewIRI(ts.URL+"/other")),
	}
	check := func(name string, res *Result, err error, wantTriples bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Segment == nil || len(res.Segment.Triples) != 2 || res.Segment.Links == nil {
			t.Fatalf("%s: segment %+v", name, res.Segment)
		}
		if got := res.Triples; wantTriples != (got != nil) {
			t.Errorf("%s: Triples %v, want them set: %v", name, got, wantTriples)
		}
		if got := res.DecodedTriples(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: decodes to %v, want %v", name, got, want)
		}
	}
	engineDict, benchDict := rdf.NewDict(), rdf.NewDict()
	for _, cached := range []bool{false, true} {
		cache := mapCache{}
		engine := &Dereferencer{Client: ts.Client(), Dict: engineDict}
		recorded := &Dereferencer{Client: ts.Client(), Dict: benchDict, Recorder: metrics.NewRecorder()}
		if cached {
			engine.Shared, recorded.Shared = cache, cache
		}
		res, err := engine.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
		check("engine fetch", res, err, false)
		res, err = recorded.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
		name := "recorder fetch"
		if cached {
			name = "recorder hit of the engine's entry"
			if res.Segment.Dict != engineDict {
				t.Fatal("the hit must serve the entry the engine filled")
			}
		}
		check(name, res, err, true)
		if cached && cache[ts.URL+"/doc"].Triples != nil {
			t.Error("the cached Result must not hold Triples")
		}
	}
}

// TestPrivateDictIsMadeOnce fetches a two-triple document repeatedly
// through a Dereferencer without Dict: every fetch after the first reuses
// the private dictionary the first one made, so it costs the request and
// the parse, not a fresh dictionary's first decode chunk and arena (about
// 80 KB). The HTTP stack's own share varies from fetch to fetch, so the pin
// is on the cheapest of five.
func TestPrivateDictIsMadeOnce(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`<#me> <http://xmlns.com/foaf/0.1/name> "Alice" . <rel> <http://p> <http://o> .`))
	})
	d := &Dereferencer{Client: ts.Client()}
	first, err := d.Dereference(context.Background(), ts.URL+"/card", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := d.Dereference(context.Background(), ts.URL+"/card", "", "seed")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Segment.Dict != first.Segment.Dict || len(res.Segment.Triples) != 2 {
			t.Errorf("fetch %d: %d triples, same dictionary %v", i+2, len(res.Segment.Triples), res.Segment.Dict == first.Segment.Dict)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 16<<10 {
		t.Errorf("a repeated fetch of a two-triple document allocated at least %d bytes, want < 16 KB", least)
	}
}
