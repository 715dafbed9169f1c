package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func record(r *Recorder, url, parent string, startMS, durMS int, status int, bytes int64) {
	epoch := r.Epoch()
	r.Record(Request{
		URL: url, Parent: parent, Reason: "test",
		Start:  epoch.Add(time.Duration(startMS) * time.Millisecond),
		End:    epoch.Add(time.Duration(startMS+durMS) * time.Millisecond),
		Status: status, Bytes: bytes, Triples: 10,
	})
}

func TestStatsDepthAndParallelism(t *testing.T) {
	r := NewRecorder()
	record(r, "http://h/pods/1/profile/card", "", 0, 10, 200, 100)
	record(r, "http://h/pods/1/settings/ti", "http://h/pods/1/profile/card", 10, 10, 200, 100)
	record(r, "http://h/pods/1/posts/", "http://h/pods/1/settings/ti", 20, 10, 200, 100)
	record(r, "http://h/pods/1/posts/a", "http://h/pods/1/posts/", 30, 20, 200, 100)
	record(r, "http://h/pods/1/posts/b", "http://h/pods/1/posts/", 30, 20, 200, 100)
	record(r, "http://h/pods/2/profile/card", "http://h/pods/1/posts/a", 55, 10, 404, 0)

	s := r.Stats()
	if s.Requests != 6 {
		t.Errorf("Requests = %d", s.Requests)
	}
	if s.Failed != 1 {
		t.Errorf("Failed = %d", s.Failed)
	}
	if s.MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", s.MaxDepth)
	}
	if s.MaxParallel != 2 {
		t.Errorf("MaxParallel = %d, want 2", s.MaxParallel)
	}
	if s.TotalBytes != 500 {
		t.Errorf("TotalBytes = %d", s.TotalBytes)
	}
	if s.TotalTriples != 60 {
		t.Errorf("TotalTriples = %d", s.TotalTriples)
	}
	if s.DistinctHosts != 2 {
		t.Errorf("DistinctHosts = %d (two pods on one host)", s.DistinctHosts)
	}
}

func TestPodsTouched(t *testing.T) {
	r := NewRecorder()
	record(r, "http://h/pods/1/profile/card", "", 0, 5, 200, 1)
	record(r, "http://h/pods/1/posts/a", "", 5, 5, 200, 1)
	record(r, "http://h/pods/2/profile/card", "", 10, 5, 200, 1)
	record(r, "http://h/other/doc", "", 15, 5, 200, 1)
	if got := r.PodsTouched(); got != 2 {
		t.Errorf("PodsTouched = %d, want 2", got)
	}
}

func TestResultTimes(t *testing.T) {
	r := NewRecorder()
	if _, ok := r.TimeToFirstResult(); ok {
		t.Error("TTFR before any result should be !ok")
	}
	r.RecordResult()
	r.RecordResult()
	times := r.ResultTimes()
	if len(times) != 2 {
		t.Fatalf("results = %d", len(times))
	}
	ttfr, ok := r.TimeToFirstResult()
	if !ok || ttfr < 0 {
		t.Errorf("TTFR = %v, %v", ttfr, ok)
	}
}

func TestWaterfallRendering(t *testing.T) {
	r := NewRecorder()
	record(r, "http://h/pods/1/profile/card", "", 0, 10, 200, 321)
	record(r, "http://h/pods/1/posts/a", "http://h/pods/1/profile/card", 10, 30, 200, 999)
	out := r.Waterfall(40)
	if !strings.Contains(out, "profile/card") {
		t.Errorf("missing URL:\n%s", out)
	}
	if !strings.Contains(out, "2 requests") {
		t.Errorf("missing summary:\n%s", out)
	}
	if !strings.Contains(out, "=") || !strings.Contains(out, "|") {
		t.Errorf("missing bars:\n%s", out)
	}
	// Rows are sorted by start: card before posts/a.
	if strings.Index(out, "profile/card") > strings.Index(out, "posts/a") {
		t.Errorf("rows out of order:\n%s", out)
	}
}

func TestWaterfallEmpty(t *testing.T) {
	r := NewRecorder()
	if out := r.Waterfall(40); !strings.Contains(out, "no requests") {
		t.Errorf("empty waterfall = %q", out)
	}
}

func TestDependencyEdges(t *testing.T) {
	r := NewRecorder()
	record(r, "http://a", "", 0, 5, 200, 1)
	record(r, "http://b", "http://a", 5, 5, 200, 1)
	record(r, "http://c", "http://a", 6, 5, 200, 1)
	edges := r.DependencyEdges()
	if len(edges) != 2 || edges[0] != [2]string{"http://a", "http://b"} {
		t.Errorf("edges = %v", edges)
	}
}

func TestShorten(t *testing.T) {
	long := "http://example.org/very/long/path/to/document"
	s := shorten(long, 20)
	if len([]rune(s)) > 20 {
		t.Errorf("shorten produced %d runes", len([]rune(s)))
	}
	if !strings.HasSuffix(long, strings.TrimPrefix(s, "…")) {
		t.Errorf("shorten should keep the tail: %q", s)
	}
	if shorten("short", 20) != "short" {
		t.Error("short strings unchanged")
	}
}

func TestRequestDuration(t *testing.T) {
	now := time.Now()
	q := Request{Start: now, End: now.Add(30 * time.Millisecond)}
	if q.Duration() != 30*time.Millisecond {
		t.Errorf("Duration = %v", q.Duration())
	}
}

func TestQueueEvolution(t *testing.T) {
	r := NewRecorder()
	if got := r.QueueEvolution(); len(got) != 0 {
		t.Errorf("fresh recorder queue samples = %v", got)
	}
	r.RecordQueueSample(3, 4)
	r.RecordQueueSample(7, 10)
	r.RecordQueueSample(1, 12)
	samples := r.QueueEvolution()
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			t.Error("samples out of order")
		}
	}
	if samples[1].Length != 7 || samples[1].Seen != 10 {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	if r.PeakQueueLength() != 7 {
		t.Errorf("peak = %d", r.PeakQueueLength())
	}
}

// recordAttempt is record plus an attempt number and error string.
func recordAttempt(r *Recorder, url string, attempt int, status int, errStr string) {
	epoch := r.Epoch()
	r.Record(Request{
		URL: url, Reason: "test", Attempt: attempt,
		Start:  epoch,
		End:    epoch.Add(5 * time.Millisecond),
		Status: status, Err: errStr,
	})
}

func TestStatsRetriesAndFailedDocuments(t *testing.T) {
	r := NewRecorder()
	// Document a: two failed attempts, then success — retried, not lost.
	recordAttempt(r, "http://h/a", 1, 503, "status 503")
	recordAttempt(r, "http://h/a", 2, 503, "status 503")
	recordAttempt(r, "http://h/a", 3, 200, "")
	// Document b: all attempts fail — abandoned.
	recordAttempt(r, "http://h/b", 1, 500, "status 500")
	recordAttempt(r, "http://h/b", 2, 0, "connection reset")
	// Document c: clean single-attempt success.
	recordAttempt(r, "http://h/c", 1, 200, "")

	s := r.Stats()
	if s.Retries != 3 {
		t.Errorf("Retries = %d, want 3", s.Retries)
	}
	if s.FailedDocuments != 1 {
		t.Errorf("FailedDocuments = %d, want 1", s.FailedDocuments)
	}
	if s.Failed != 4 {
		t.Errorf("Failed = %d, want 4 (per-attempt failures)", s.Failed)
	}
}

func TestDegradationReport(t *testing.T) {
	r := NewRecorder()
	recordAttempt(r, "http://h/lost1", 1, 503, "status 503")
	recordAttempt(r, "http://h/lost1", 2, 503, "status 503")
	recordAttempt(r, "http://h/recovered", 1, 429, "status 429")
	recordAttempt(r, "http://h/recovered", 2, 200, "")
	recordAttempt(r, "http://h/lost2", 1, 404, "status 404")

	d := r.Degradation()
	if !d.Degraded() {
		t.Fatal("Degraded() = false")
	}
	if d.Retries != 2 {
		t.Errorf("Retries = %d, want 2", d.Retries)
	}
	want := []string{"http://h/lost1", "http://h/lost2"}
	if len(d.FailedDocuments) != 2 || d.FailedDocuments[0] != want[0] || d.FailedDocuments[1] != want[1] {
		t.Errorf("FailedDocuments = %v, want %v", d.FailedDocuments, want)
	}

	if (Degradation{}).Degraded() {
		t.Error("empty degradation reports Degraded")
	}
}

func TestWaterfallMarksRetries(t *testing.T) {
	r := NewRecorder()
	recordAttempt(r, "http://h/pods/1/doc", 1, 503, "status 503")
	recordAttempt(r, "http://h/pods/1/doc", 2, 200, "")
	out := r.Waterfall(40)
	if !strings.Contains(out, "(retry 1)") {
		t.Errorf("waterfall does not mark the retry row:\n%s", out)
	}
	if !strings.Contains(out, "1 retries") {
		t.Errorf("summary lacks retry count:\n%s", out)
	}
}

// Every request falls in exactly one of: delivered by the network, served
// from the cache, failed. A negative hit (cached, and a failure) is a failed
// request — never a cache hit — and is also reported on its own.
func TestStatsPartitionsRequests(t *testing.T) {
	r := NewRecorder()
	at := r.Epoch()
	row := func(url string, status int, cached bool, err string) {
		r.Record(Request{URL: url, Start: at, End: at, Status: status, Cached: cached, Err: err, Attempt: 1})
	}
	row("http://h/a", 200, false, "")                 // fetched
	row("http://h/b", 200, false, "")                 // fetched
	row("http://h/c", 200, true, "")                  // cache hit
	row("http://h/dead", 404, true, "status 404")     // negative hit
	row("http://h/gone", 410, true, "status 410")     // negative hit
	row("http://h/missing", 404, false, "status 404") // fetched, failed
	row("http://h/down", 0, false, "connection refused")

	s := r.Stats()
	if s.Requests != 7 || s.CacheHits != 1 || s.Failed != 4 || s.NegativeHits != 2 || s.FailedDocuments != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if fetched := s.Requests - s.CacheHits - s.Failed; fetched != 2 {
		t.Errorf("Requests - CacheHits - Failed = %d, want the 2 documents the network delivered", fetched)
	}
	// One negative hit adds exactly one request and one failure.
	row("http://h/dead", 404, true, "status 404")
	if n := r.Stats(); n.Requests != s.Requests+1 || n.Failed != s.Failed+1 ||
		n.CacheHits != s.CacheHits || n.NegativeHits != s.NegativeHits+1 || n.FailedDocuments != s.FailedDocuments {
		t.Errorf("after one more negative hit: %+v, before: %+v", n, s)
	}
}

// Failed is the one rule Stats, Degradation and the critical path share for
// whether a recorded request brought a document.
func TestRequestFailed(t *testing.T) {
	for _, c := range []struct {
		name   string
		req    Request
		failed bool
	}{
		{"200", Request{Status: 200}, false},
		{"304 revalidation", Request{Status: 304}, false},
		{"404", Request{Status: 404, Err: "status 404"}, true},
		{"transport error", Request{Err: "connection refused"}, true},
		{"cached hit", Request{Status: 200, Cached: true}, false},
		{"cached negative hit", Request{Status: 404, Cached: true, Err: "status 404"}, true},
	} {
		if got := c.req.Failed(); got != c.failed {
			t.Errorf("%s: Failed() = %v, want %v", c.name, got, c.failed)
		}
	}
}

func TestHostAndPod(t *testing.T) {
	for u, want := range map[string]string{
		"http://h:8080/pods/0007/posts/a": "h:8080/pods/0007",
		"http://h/pods/1":                 "h/pods/1",
		"http://h/pods/":                  "h/pods/",
		"http://h/pods":                   "h",
		"http://h/www.ldbc.eu/vocabulary": "h",
		"https://h":                       "h",
		"h/pods/2/x":                      "h/pods/2",
		"":                                "",
	} {
		if got := hostAndPod(u); got != want {
			t.Errorf("hostAndPod(%q) = %q, want %q", u, got, want)
		}
	}
}

// Stats costs a fixed number of allocations — the copy of the rows, the sweep
// of their ends and two maps — not two per request for the pod prefix.
func TestStatsAllocations(t *testing.T) {
	r := NewRecorder()
	const requests = 128
	for i := 0; i < requests; i++ {
		parent := ""
		if i > 0 {
			parent = fmt.Sprintf("http://h/pods/%d/doc%d", (i-1)%4, i-1)
		}
		record(r, fmt.Sprintf("http://h/pods/%d/doc%d", i%4, i), parent, i, 3, 200, 100)
	}
	if s := r.Stats(); s.Requests != requests || s.DistinctHosts != 4 || s.MaxParallel != 3 || s.MaxDepth != requests-1 {
		t.Fatalf("stats = %+v", s)
	}
	// Measured 5: two slices, the presized per-document map and its buckets,
	// the host map. The rest is room for a map to grow differently.
	const limit = 8
	if got := testing.AllocsPerRun(50, func() { r.Stats() }); got > limit {
		t.Errorf("Stats over %d requests: %.0f allocations, want at most %d", requests, got, limit)
	}
	if got := testing.AllocsPerRun(50, func() { r.PodsTouched() }); got > limit {
		t.Errorf("PodsTouched over %d requests: %.0f allocations, want at most %d", requests, got, limit)
	}
}
