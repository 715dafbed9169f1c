package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTrackerLifecycle(t *testing.T) {
	tr := NewQueryTracker(2)
	r1 := tr.Start(0, "SELECT 1", []string{"http://x/a"}, nil)
	r2 := tr.Start(0, "SELECT 2", nil, nil)
	if len(tr.InFlight()) != 2 {
		t.Fatalf("in-flight = %d", len(tr.InFlight()))
	}
	r1.AddResult()
	r1.AddResult()
	tr.Finish(r1, "")
	tr.Finish(r2, "boom")
	if len(tr.InFlight()) != 0 {
		t.Fatal("in-flight not drained")
	}
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].ID != r2.ID {
		t.Fatalf("recent order wrong: %+v", recent)
	}
	if recent[0].Err() != "boom" || recent[1].Results() != 2 || !recent[1].Done() {
		t.Fatalf("outcomes wrong: err=%q results=%d", recent[0].Err(), recent[1].Results())
	}
	// Capacity bound: a third finished query evicts the oldest.
	r3 := tr.Start(0, "SELECT 3", nil, nil)
	tr.Finish(r3, "")
	if got := len(tr.Recent()); got != 2 {
		t.Fatalf("recent = %d, want capacity 2", got)
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *QueryTracker
	rec := tr.Start(0, "q", nil, nil)
	rec.AddResult()
	tr.Finish(rec, "")
	if tr.InFlight() != nil || tr.Recent() != nil {
		t.Fatal("nil tracker must return nil slices")
	}
}

func TestExpositionEndpoints(t *testing.T) {
	o := NewObserver()
	o.Metrics.QueriesStarted.Inc()
	ctx, trace := NewTrace(context.Background(), "query", Str("query", "SELECT ?x WHERE {}"))
	_, sp := StartSpan(ctx, "deref", Str("url", "http://x/a"))
	sp.End()
	trace.End()
	rec := o.Tracker.Start(0, "SELECT ?x WHERE {}", []string{"http://x/a"}, trace)
	rec.AddResult()
	o.Tracker.Finish(rec, "")

	mux := http.NewServeMux()
	o.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ct, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: %d %s", code, ct)
	}
	if !strings.Contains(body, "ltqp_queries_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, _, body = get("/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}

	code, ct, body = get("/debug/queries")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/queries: %d %s", code, ct)
	}
	var payload struct {
		InFlight []json.RawMessage `json:"in_flight"`
		Recent   []struct {
			Query   string    `json:"query"`
			Results int       `json:"results"`
			Done    bool      `json:"done"`
			Trace   *SpanJSON `json:"trace"`
		} `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("queries JSON: %v\n%s", err, body)
	}
	if len(payload.Recent) != 1 || payload.Recent[0].Results != 1 || !payload.Recent[0].Done {
		t.Fatalf("recent = %+v", payload.Recent)
	}
	if payload.Recent[0].Trace == nil || payload.Recent[0].Trace.Name != "query" {
		t.Fatalf("trace missing: %+v", payload.Recent[0].Trace)
	}

	// ?trace=0 omits span trees.
	_, _, body = get("/debug/queries?trace=0")
	if strings.Contains(body, `"trace"`) {
		t.Fatalf("trace=0 still has trees:\n%s", body)
	}

	// Tree rendering of one query. IDs come from the process-wide
	// correlation counter, so address the record by its actual id.
	code, ct, body = get(fmt.Sprintf("/debug/queries?format=tree&id=%d", rec.ID))
	if code != 200 || !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "deref") {
		t.Fatalf("tree: %d %s %q", code, ct, body)
	}
	code, _, _ = get("/debug/queries?format=tree&id=999")
	if code != 404 {
		t.Fatalf("unknown id = %d, want 404", code)
	}
}

// TestTopologyEndpoint drives /debug/topology through its three shapes:
// the index listing, the per-query JSON graph, and the Graphviz DOT render.
func TestTopologyEndpoint(t *testing.T) {
	o := NewObserver()
	rec := o.Tracker.Start(0, "SELECT ?x WHERE {}", []string{"http://x/a"}, nil)
	topo := NewTopology()
	for _, ev := range []Event{
		{Kind: EventLinkQueued, URL: "http://x/a", Extractor: "seed", Reason: "seed"},
		{Kind: EventDocumentDereferenced, URL: "http://x/a", Status: 200, Triples: 4, Bytes: 300, DurationUS: 1000},
		{Kind: EventLinkQueued, URL: "http://x/b", Via: "http://x/a", Extractor: "ldp-container", Reason: "ldp-container", Depth: 1},
		{Kind: EventResultEmitted, Row: 1, Sources: []string{"http://x/a"}},
	} {
		ev.Time = time.Now()
		topo.Apply(ev)
	}
	rec.AttachTopology(topo)
	rec.SetContributions([]DocMatches{{Document: "http://x/a", Matches: 2}})
	o.Tracker.Finish(rec, "")

	// A query without topology must not appear in the index.
	bare := o.Tracker.Start(0, "SELECT ?y WHERE {}", nil, nil)
	o.Tracker.Finish(bare, "")

	mux := http.NewServeMux()
	o.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ct, body := get("/debug/topology")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/topology: %d %s", code, ct)
	}
	var index struct {
		Schema  int `json:"schema"`
		Queries []struct {
			ID       int64 `json:"id"`
			Topology struct {
				Documents int `json:"documents"`
				Links     int `json:"links"`
			} `json:"topology"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &index); err != nil {
		t.Fatalf("index JSON: %v\n%s", err, body)
	}
	if index.Schema != TraceSchemaVersion || len(index.Queries) != 1 {
		t.Fatalf("index = %+v", index)
	}
	if index.Queries[0].Topology.Documents != 1 || index.Queries[0].Topology.Links != 2 {
		t.Fatalf("summary = %+v", index.Queries[0])
	}

	code, ct, body = get(fmt.Sprintf("/debug/topology?id=%d", rec.ID))
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("per-query: %d %s", code, ct)
	}
	var full struct {
		Topology TopologyJSON `json:"topology"`
	}
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("topology JSON: %v\n%s", err, body)
	}
	if len(full.Topology.Nodes) != 1 || len(full.Topology.Edges) != 2 || len(full.Topology.Results) != 1 {
		t.Fatalf("full topology = %+v", full.Topology)
	}

	code, ct, body = get(fmt.Sprintf("/debug/topology?id=%d&format=dot", rec.ID))
	if code != 200 || !strings.HasPrefix(ct, "text/vnd.graphviz") {
		t.Fatalf("dot: %d %s", code, ct)
	}
	if !strings.Contains(body, "digraph traversal") {
		t.Fatalf("dot body:\n%s", body)
	}

	if code, _, _ = get("/debug/topology?id=99999"); code != 404 {
		t.Errorf("unknown id = %d, want 404", code)
	}
	if code, _, _ = get(fmt.Sprintf("/debug/topology?id=%d", bare.ID)); code != 404 {
		t.Errorf("topology-less query = %d, want 404", code)
	}

	// /debug/queries embeds the topology summary and contributions.
	_, _, body = get("/debug/queries")
	if !strings.Contains(body, `"contributions"`) || !strings.Contains(body, `"topology"`) {
		t.Errorf("/debug/queries lacks explain fields:\n%s", body)
	}
}
