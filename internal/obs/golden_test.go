package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"ltqp/internal/metrics"
)

// goldenRequests is a fixed-timestamp traversal: a seed, documents it links
// to, a post fetched on its second attempt, a cache hit, a 404, and a
// transport error that finishes last, with server time reported on some
// fetches. The recorder epoch sits 1ms before the seed starts.
func goldenRequests() (reqs []metrics.Request, epoch time.Time) {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	const (
		card  = "http://pod.example/pods/00001/profile/card"
		posts = "http://pod.example/pods/00001/posts/"
	)
	return []metrics.Request{
		{URL: card, Reason: "seed", Start: at(0), End: at(12),
			Status: 200, Bytes: 1843, Triples: 31, Attempt: 1, Server: 2500 * time.Microsecond},
		{URL: "http://pod.example/pods/00001/settings/publicTypeIndex", Parent: card, Reason: "solid:publicTypeIndex",
			Start: at(12), End: at(20), Status: 200, Bytes: 612, Triples: 8, Attempt: 1, Server: time.Millisecond},
		{URL: posts, Parent: card, Reason: "pim:storage", Start: at(12), End: at(25),
			Status: 200, Bytes: 2048, Triples: 20, Attempt: 1},
		{URL: "http://pod.example/www.ldbc.eu/vocabulary/Post", Parent: card, Reason: "cmatch", Start: at(20), End: at(22),
			Status: 404, Err: "status 404", Attempt: 1},
		{URL: "http://other.example/x", Parent: card, Reason: "cmatch", Start: at(22), End: at(45),
			Err: "connection refused", Attempt: 1},
		{URL: posts + "2010-01-01", Parent: posts, Reason: "ldp:contains", Start: at(25), End: at(30),
			Status: 503, Err: "status 503", Attempt: 1},
		{URL: posts + "2010-01-02", Parent: posts, Reason: "ldp:contains", Start: at(25), End: at(25),
			Status: 200, Bytes: 450, Triples: 6, Cached: true, Attempt: 1},
		{URL: posts + "2010-01-01", Parent: posts, Reason: "ldp:contains", Start: at(33), End: at(40.5),
			Status: 200, Bytes: 977, Triples: 12, Attempt: 2, Server: 4 * time.Millisecond},
	}, t0.Add(-time.Millisecond)
}

// goldenCritPath is goldenRequests' critical path with the first result at
// 42ms, produced from the retried post.
func goldenCritPath() *CritPath {
	reqs, epoch := goldenRequests()
	return ComputeCritPath(reqs, epoch, []time.Duration{42 * time.Millisecond},
		[]string{"http://pod.example/pods/00001/posts/2010-01-01"})
}

// TestRenderTraceWaterfallGolden pins the kept-trace waterfall of
// goldenRequests against testdata/trace_waterfall.golden.
func TestRenderTraceWaterfallGolden(t *testing.T) {
	reqs, epoch := goldenRequests()
	rec := &TraceRecord{
		TraceID:      "4bf92f3577b34da6a3ce929d0e0e4736",
		DurationMS:   47,
		TTFRMS:       42,
		KeepReason:   "degraded",
		Requests:     RequestsJSON(reqs, epoch),
		CriticalPath: goldenCritPath(),
	}
	checkGolden(t, "testdata/trace_waterfall.golden", RenderTraceWaterfall(rec, 50))
}

// TestCritPathRenderGolden pins the critical-path charts of goldenRequests
// against testdata/critpath.golden: the first-result chain through the
// retried post and the longest chain ending at the transport error.
func TestCritPathRenderGolden(t *testing.T) {
	checkGolden(t, "testdata/critpath.golden", goldenCritPath().Render(50))
}

// TestJournalReportGolden pins WriteReport over two journaled queries — the
// synthetic one and one that loses a document — against
// testdata/journal_report.golden.
func TestJournalReportGolden(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	t0 := emitSyntheticQuery(bus, 1)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	e := NewEmitter(bus, 2, nil, nil, nil, nil, nil)
	e.Emit(Event{Kind: EventQueryStarted, Time: at(100), Detail: "SELECT ?t WHERE { ?p <http://v/title> ?t }",
		Seeds: []string{"http://pod/c"}})
	e.Emit(Event{Kind: EventDocumentDereferenced, URL: "http://pod/c", Status: 200,
		Triples: 3, Bytes: 90, Time: at(104), DurationUS: 4000})
	e.Emit(Event{Kind: EventLinkDiscovered, URL: "http://pod/gone", Via: "http://pod/c", Extractor: "cmatch"})
	e.Emit(Event{Kind: EventLinkQueued, URL: "http://pod/gone", Via: "http://pod/c", Depth: 1})
	e.Emit(Event{Kind: EventDocumentDereferenced, URL: "http://pod/gone", Via: "http://pod/c",
		Err: "status 404", Time: at(107), DurationUS: 2500})
	e.Emit(Event{Kind: EventQueryFinished, Time: at(108), DurationUS: 8000})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	s.WriteReport(&out, 3)
	checkGolden(t, "testdata/journal_report.golden", out.String())
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
