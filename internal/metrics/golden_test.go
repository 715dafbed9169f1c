package metrics

import (
	"os"
	"testing"
	"time"
)

// goldenRequests is a fixed-timestamp traversal recorded out of start order:
// a seed, documents it links to, a retried post, a cache hit, a 404 and a
// transport error, with server time reported on some fetches.
func goldenRequests() []Request {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	const (
		card  = "http://pod.example/pods/00001/profile/card"
		posts = "http://pod.example/pods/00001/posts/"
	)
	return []Request{
		{URL: posts + "2010-01-01", Parent: posts, Reason: "ldp:contains", Start: at(33), End: at(40.5),
			Status: 200, Bytes: 977, Triples: 12, Attempt: 2, Server: 4 * time.Millisecond},
		{URL: card, Reason: "seed", Start: at(0), End: at(12),
			Status: 200, Bytes: 1843, Triples: 31, Attempt: 1, Server: 2500 * time.Microsecond},
		{URL: "http://pod.example/pods/00001/settings/publicTypeIndex", Parent: card, Reason: "solid:publicTypeIndex",
			Start: at(12), End: at(20), Status: 200, Bytes: 612, Triples: 8, Attempt: 1, Server: time.Millisecond},
		{URL: posts, Parent: card, Reason: "pim:storage", Start: at(12), End: at(25),
			Status: 200, Bytes: 2048, Triples: 20, Attempt: 1},
		{URL: posts + "2010-01-01", Parent: posts, Reason: "ldp:contains", Start: at(25), End: at(30),
			Status: 503, Err: "status 503", Attempt: 1},
		{URL: posts + "2010-01-02", Parent: posts, Reason: "ldp:contains", Start: at(25), End: at(25),
			Status: 200, Bytes: 450, Triples: 6, Cached: true, Attempt: 1},
		{URL: "http://pod.example/www.ldbc.eu/vocabulary/Post", Parent: card, Reason: "cmatch", Start: at(20), End: at(22),
			Status: 404, Err: "status 404", Attempt: 1},
		{URL: "http://other.example/x", Parent: card, Reason: "cmatch", Start: at(22), End: at(45),
			Err: "connection refused", Attempt: 1},
	}
}

// TestWaterfallGolden pins the live waterfall of goldenRequests byte for
// byte against testdata/waterfall.golden.
func TestWaterfallGolden(t *testing.T) {
	r := NewRecorder()
	for _, q := range goldenRequests() {
		r.Record(q)
	}
	checkGolden(t, "testdata/waterfall.golden", r.Waterfall(50))
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
