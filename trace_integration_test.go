package ltqp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/obs"
	"ltqp/internal/podserver"
	"ltqp/internal/solid"
)

// traceEnv serves the explain tests' three-document chain a.ttl → b.ttl →
// c.ttl with injected per-request latency and a server-side span log, so
// the client and server halves of the distributed trace can be joined. The
// engine publishes its events to bus (nil: none).
func traceEnv(t *testing.T, latency time.Duration, bus *ltqp.EventBus) (base string, engine *ltqp.Engine, ps *podserver.Server, cleanup func()) {
	t.Helper()
	ps = podserver.New()
	ps.Latency = latency
	ps.Spans = obs.NewServerSpanLog(0)
	srv := httptest.NewServer(ps)
	base = srv.URL
	ps.AddDocument(base+"/a.ttl", fmt.Sprintf(
		"<%s/a.ttl#alice> <http://v/friend> <%s/b.ttl#bob>.", base, base), solid.PublicAccess)
	ps.AddDocument(base+"/b.ttl", fmt.Sprintf(
		"<%s/b.ttl#bob> <http://v/post> <%s/c.ttl#p1>.", base, base), solid.PublicAccess)
	ps.AddDocument(base+"/c.ttl", fmt.Sprintf(
		"<%s/c.ttl#p1> <http://v/title> \"hello\".", base), solid.PublicAccess)
	engine = ltqp.New(ltqp.Config{
		Client:   srv.Client(),
		Strategy: ltqp.StrategyCMatch,
		Explain:  true,
		Trace:    true,
		Events:   bus,
	})
	return base, engine, ps, srv.Close
}

// TestCriticalPathThreeHop is the tentpole acceptance test: a three-hop
// dependent dereference chain under injected latency must yield a critical
// path in Result.Explain() naming the exact chain that gated the first
// result, with a server-side share absorbed from Server-Timing.
func TestCriticalPathThreeHop(t *testing.T) {
	base, engine, _, done := traceEnv(t, 5*time.Millisecond, nil)
	defer done()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, explainQuery(base))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res.Results {
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("results = %d, want 1", n)
	}

	report := res.Explain()
	if report == nil || report.CriticalPath == nil {
		t.Fatal("Explain() carries no critical path")
	}
	cp := report.CriticalPath
	wantChain := []string{base + "/a.ttl", base + "/b.ttl", base + "/c.ttl"}
	if got := cp.FirstResultURLs(); !reflect.DeepEqual(got, wantChain) {
		t.Errorf("first-result chain = %v, want %v", got, wantChain)
	}
	if cp.TTFRMS <= 0 {
		t.Errorf("TTFR = %v, want > 0", cp.TTFRMS)
	}
	// Three dependent fetches, each at least the injected 5ms.
	if cp.GatingMS < 15 {
		t.Errorf("gating = %.1fms, want >= 15 (3 serialized 5ms fetches)", cp.GatingMS)
	}
	// Server-Timing attribution: the injected latency is server-side delay,
	// so the server share must dominate the chain.
	if cp.ServerMS < 15 {
		t.Errorf("server share = %.1fms, want >= 15 (Server-Timing absorbed)", cp.ServerMS)
	}
	if cp.ServerMS > cp.GatingMS {
		t.Errorf("server share %.1f exceeds gating %.1f", cp.ServerMS, cp.GatingMS)
	}
	// The same analysis reaches the raw recorder: every chain hop carries
	// its server share.
	for _, q := range res.Metrics().Requests() {
		if q.Server <= 0 {
			t.Errorf("request %s absorbed no Server-Timing", q.URL)
		}
	}
}

// TestTraceSmokeThreeHop joins the client and server halves of the trace:
// the query's trace ID propagates via traceparent to every pod request, the
// pod's span log records one server span per dereference, and the counts
// agree with --stats' document count. With LTQP_TRACE_ARTIFACT set, the
// merged trace is exported as JSON, and with LTQP_JOURNAL_ARTIFACT set the
// query's event journal is written as JSONL (the CI trace-smoke artifacts).
func TestTraceSmokeThreeHop(t *testing.T) {
	bus := ltqp.NewEventBus()
	var journal bytes.Buffer
	j, err := ltqp.NewJournal(&journal, bus)
	if err != nil {
		t.Fatal(err)
	}
	base, engine, ps, done := traceEnv(t, 2*time.Millisecond, bus)
	defer done()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, explainQuery(base))
	if err != nil {
		t.Fatal(err)
	}
	for range res.Results {
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	traceID := res.TraceID()
	if len(traceID) != 32 {
		t.Fatalf("TraceID() = %q, want 32 hex chars", traceID)
	}
	docs := res.Stats().Requests
	if docs != 3 {
		t.Fatalf("stats requests = %d, want 3", docs)
	}

	// Client side: one "document" span per dereferenced document, all under
	// the query's trace ID.
	root := res.Trace().Root()
	if root == nil {
		t.Fatal("no trace recorded")
	}
	clientDocs := root.Count("document")
	if clientDocs != docs {
		t.Errorf("client document spans = %d, want %d", clientDocs, docs)
	}
	docSpans := 0
	root.Walk(func(sp *obs.Span) {
		if sp.Name() == "document" {
			docSpans++
			if sp.TraceID().String() != traceID {
				t.Errorf("document span carries trace %s, want %s", sp.TraceID(), traceID)
			}
		}
	})

	// Server side: the pod recorded exactly one span per request, joined to
	// the same trace via the propagated traceparent header.
	serverSpans := ps.Spans.ByTrace(traceID)
	if len(serverSpans) != docs {
		t.Fatalf("server spans for trace = %d, want %d (all %d recorded)",
			len(serverSpans), docs, ps.Spans.Len())
	}
	for _, sp := range serverSpans {
		if sp.ParentID == "" || sp.SpanID == "" {
			t.Errorf("server span %s missing ids: %+v", sp.URL, sp)
		}
		if sp.Status != 200 {
			t.Errorf("server span %s status = %d", sp.URL, sp.Status)
		}
		if sp.DelayMS < 1 {
			t.Errorf("server span %s delay = %.2fms, want >= 1 (injected latency)", sp.URL, sp.DelayMS)
		}
	}

	if path := os.Getenv("LTQP_TRACE_ARTIFACT"); path != "" {
		rec := obs.TraceRecord{
			TraceID:      traceID,
			Query:        "trace-smoke three-hop",
			Start:        res.Metrics().Epoch(),
			Results:      1,
			KeepReason:   "smoke",
			Root:         res.Trace().Snapshot(),
			Requests:     obs.RequestsJSON(res.Metrics().Requests(), res.Metrics().Epoch()),
			ServerSpans:  serverSpans,
			CriticalPath: res.Explain().CriticalPath,
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("trace artifact written to %s (%d bytes)", path, len(data))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if path := os.Getenv("LTQP_JOURNAL_ARTIFACT"); path != "" {
		if err := os.WriteFile(path, journal.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
