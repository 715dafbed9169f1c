package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ltqp/internal/metrics"
)

// at stamps an event with an offset from epoch, as the emitter would.
func at(epoch time.Time, offset time.Duration, ev Event) Event {
	ev.Time = epoch.Add(offset)
	return ev
}

func TestTopologyFoldsEvents(t *testing.T) {
	epoch := time.Now()
	ms := time.Millisecond
	topo := NewTopology()
	for _, ev := range []Event{
		at(epoch, 0, Event{Kind: EventQueryStarted, Seeds: []string{"http://pod/card"}}),
		at(epoch, 0, Event{Kind: EventStageStarted, Stage: "traverse"}), // ignored
		at(epoch, 0, Event{Kind: EventLinkQueued, URL: "http://pod/card", Extractor: "seed", Reason: "seed"}),
		at(epoch, 3*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/card", Status: 200, Triples: 12, Bytes: 800, DurationUS: 2000}),
		at(epoch, 3*ms, Event{Kind: EventLinkDiscovered, URL: "http://pod/posts/", Via: "http://pod/card"}), // ignored
		at(epoch, 3*ms, Event{Kind: EventLinkQueued, URL: "http://pod/posts/", Via: "http://pod/card", Extractor: "solid-profile", Reason: "storage", Depth: 1}),
		// Two attempts: the node spans both and shows the second.
		at(epoch, 5*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/posts/", Via: "http://pod/card", Attempt: 1, Status: 503, Err: "status 503", DurationUS: 1000}),
		at(epoch, 7*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/posts/", Via: "http://pod/card", Attempt: 2, Status: 200, Triples: 30, Bytes: 2000, DurationUS: 1000}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/card", Via: "http://pod/posts/", Extractor: "match", Reason: "match", Detail: EdgeDuplicate}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/deep", Via: "http://pod/posts/", Extractor: "ldp-container", Reason: "ldp-container", Detail: EdgeDepthPruned}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/bomb", Via: "http://pod/posts/", Extractor: "ldp-container", Reason: "ldp-container", Detail: FateFanoutPruned}),
		at(epoch, 8*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/missing", Err: "404", DurationUS: 1000}),
		at(epoch, 9*ms, Event{Kind: EventResultEmitted, Row: 1, Sources: []string{"http://pod/card", "http://pod/posts/"}}),
	} {
		topo.Apply(ev)
	}

	if s := topo.summary(); s != (topoSummaryJSON{Documents: 3, Links: 5, Results: 1}) {
		t.Fatalf("counts: %+v", s)
	}

	snap := topo.Snapshot()
	if len(snap.Nodes) != 3 || !snap.Nodes[0].Seed {
		t.Fatalf("nodes = %+v", snap.Nodes)
	}
	if n := snap.Nodes[0]; n.Status != 200 || n.Triples != 12 || n.Bytes != 800 || n.StartMS != 1 || n.DurMS != 2 {
		t.Errorf("seed node = %+v", n)
	}
	if n := snap.Nodes[1]; n.Depth != 1 || n.StartMS != 4 || n.DurMS != 3 || n.Status != 200 || n.Error != "" || n.Triples != 30 {
		t.Errorf("second node = %+v", n)
	}
	if snap.Nodes[2].Error != "404" {
		t.Errorf("error node = %+v", snap.Nodes[2])
	}
	// Edge 0 is the synthetic seed edge.
	if snap.Edges[0].Extractor != "seed" || snap.Edges[0].From != "" {
		t.Errorf("seed edge = %+v", snap.Edges[0])
	}
	if e := snap.Edges[1]; e.Extractor != "solid-profile" || e.Reason != "storage" || e.Status != EdgeFollowed {
		t.Errorf("followed edge = %+v", e)
	}
	if snap.Edges[2].Status != EdgeDuplicate || snap.Edges[3].Status != EdgeDepthPruned {
		t.Errorf("rejected edges = %+v, %+v", snap.Edges[2], snap.Edges[3])
	}
	// The three defense fates share one edge status.
	if snap.Edges[4].Status != EdgeLimitPruned {
		t.Errorf("fanout-pruned edge = %+v", snap.Edges[4])
	}
	// Result rows are 0-based on the timeline, 1-based on the event.
	if r := snap.Results[0]; r.Row != 0 || r.AtMS != 9 || len(r.Sources) != 2 {
		t.Errorf("result = %+v", r)
	}
	if got := topo.FirstResultSources(); len(got) != 2 {
		t.Errorf("first result sources = %v", got)
	}

	// Timeline interleaves 3 document completions and 1 result, sorted.
	if len(snap.Timeline) != 4 {
		t.Fatalf("timeline = %+v", snap.Timeline)
	}
	for i := 1; i < len(snap.Timeline); i++ {
		if snap.Timeline[i].AtMS < snap.Timeline[i-1].AtMS {
			t.Fatalf("timeline out of order: %+v", snap.Timeline)
		}
	}
}

func TestTopologyDOT(t *testing.T) {
	topo := NewTopology()
	for _, ev := range []Event{
		{Kind: EventLinkQueued, URL: "http://pod/card", Extractor: "seed", Reason: "seed"},
		{Kind: EventDocumentDereferenced, URL: "http://pod/card", Status: 200, Triples: 5, Bytes: 100, DurationUS: 1000},
		{Kind: EventLinkQueued, URL: "http://pod/posts/", Via: "http://pod/card", Extractor: "ldp-container", Reason: "ldp-container"},
		{Kind: EventLinkPruned, URL: "http://pod/dup", Via: "http://pod/card", Extractor: "match", Reason: "match", Detail: EdgeDuplicate},
		{Kind: EventDocumentDereferenced, URL: "http://pod/dead", Err: "boom"},
	} {
		topo.Apply(at(time.Now(), 0, ev))
	}

	dot := topo.DOT()
	for _, want := range []string{
		"digraph traversal {",
		`"http://pod/card" -> "http://pod/posts/"`,
		`label="ldp-container"`,
		"peripheries=2",            // seed node
		"style=dotted, color=gray", // non-followed edge
		"style=dashed, color=red",  // failed dereference
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// TestTopologyNilSafe: a nil topology is the disabled state — every method
// must no-op, and the snapshot must be an empty skeleton.
func TestTopologyNilSafe(t *testing.T) {
	var topo *Topology
	topo.Apply(Event{Kind: EventDocumentDereferenced, URL: "x"})
	topo.Apply(Event{Kind: EventResultEmitted, Row: 1})
	if topo.summary() != (topoSummaryJSON{}) {
		t.Error("nil topology reported non-zero counts")
	}
	snap := topo.Snapshot()
	if snap.Nodes == nil || snap.Edges == nil || snap.Results == nil || snap.Timeline == nil {
		t.Error("nil topology snapshot has nil slices (breaks JSON shape)")
	}
	if !strings.Contains(topo.DOT(), "digraph traversal") {
		t.Error("nil topology DOT not a digraph skeleton")
	}
}

// TestEmitterFoldsInPublishOrder: an emitter carrying a topology folds every
// event synchronously, without a bus or with one, and concurrent emitters
// leave the fold and the bus agreeing on the order — the property that makes
// a journal replay to the live topology.
func TestEmitterFoldsInPublishOrder(t *testing.T) {
	if e := NewEmitter(nil, 1, NewTopology(), nil, nil, nil, nil); !e.Active() {
		t.Fatal("an emitter with a topology has an audience without a bus")
	}
	bus := NewBus()
	sub := bus.Subscribe(1024)
	defer sub.Close()
	topo := NewTopology()
	e := NewEmitter(bus, 7, topo, nil, nil, nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				e.Emit(Event{Kind: EventLinkPruned, URL: fmt.Sprintf("http://pod/%d/%d", n, j),
					Via: "http://pod/doc", Extractor: "match", Detail: EdgeDuplicate})
			}
		}(i)
	}
	wg.Wait()
	edges := topo.Snapshot().Edges
	events := sub.Drain()
	if len(edges) != 400 || len(events) != 400 {
		t.Fatalf("edges = %d, events = %d, want 400 each", len(edges), len(events))
	}
	for i, ev := range events {
		if ev.Query != 7 || edges[i].To != ev.URL {
			t.Fatalf("position %d: bus delivered %s (query %d), fold recorded %s", i, ev.URL, ev.Query, edges[i].To)
		}
	}
}

// TestEmitterFoldsAttempts: every document_dereferenced attempt becomes the
// recorder's row and is counted in the deref instruments — a retried fetch,
// a revalidation, a cache hit and a negative cache hit.
func TestEmitterFoldsAttempts(t *testing.T) {
	rec := metrics.NewRecorder()
	m := NewMetrics(NewRegistry())
	e := NewEmitter(nil, 1, nil, rec, &Observer{Metrics: m}, nil, nil)
	epoch, ms := time.Now(), time.Millisecond
	for _, ev := range []Event{
		at(epoch, 0, Event{Kind: EventLinkQueued, URL: "http://pod/a"}),
		at(epoch, 1*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/a", Attempt: 1, Status: 503, Err: "status 503", DurationUS: 900}),
		at(epoch, 3*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/a", Attempt: 2, Status: 200, Bytes: 90, Triples: 3, DurationUS: 1000, ServerUS: 400}),
		at(epoch, 4*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/b", Attempt: 1, Status: 304, DurationUS: 500}),
		at(epoch, 5*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/c", Attempt: 1, Status: 200, Bytes: 50, Triples: 2, Cached: true}),
		at(epoch, 6*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/gone", Attempt: 1, Status: 404, Err: "status 404", Cached: true}),
	} {
		e.Emit(ev)
	}
	want := metrics.Stats{Requests: 5, Failed: 2, TotalBytes: 140, TotalTriples: 5, MaxParallel: 1, WallTime: 5900 * time.Microsecond,
		DistinctHosts: 1, Retries: 1, FailedDocuments: 1, CacheHits: 1, NegativeHits: 1}
	if st := rec.Stats(); st != want {
		t.Errorf("recorder stats = %+v, want %+v", st, want)
	}
	if reqs := rec.Requests(); reqs[1].Server != 400*time.Microsecond || reqs[1].Duration() != time.Millisecond {
		t.Errorf("retried row = %+v", reqs[1])
	}
	for name, got := range map[string]int64{
		"fetched": m.DocumentsFetched.Value(), "bytes": m.BytesFetched.Value(), "triples": m.TriplesParsed.Value(),
		"failures": m.FetchFailures.Value(), "retries": m.Retries.Value(), "cache hits": m.CacheHits.Value(),
		"503s": m.DocumentsByStatus.With("503").Value(), "304s": m.DocumentsByStatus.With("304").Value(),
		"404s": m.DocumentsByStatus.With("404").Value(), "latencies": m.DerefDuration.Count(),
	} {
		want := map[string]int64{"fetched": 1, "bytes": 90, "triples": 3, "failures": 1, "retries": 1,
			"cache hits": 1, "503s": 1, "304s": 1, "404s": 0, "latencies": 3}[name]
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
