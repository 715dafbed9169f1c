package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
		at(epoch, 7*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/posts/", Via: "http://pod/card", Depth: 1, Status: 200, Triples: 30, Bytes: 2000, DurationUS: 3000}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/card", Via: "http://pod/posts/", Extractor: "match", Reason: "match", Detail: EdgeDuplicate}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/deep", Via: "http://pod/posts/", Extractor: "ldp-container", Reason: "ldp-container", Detail: EdgeDepthPruned}),
		at(epoch, 7*ms, Event{Kind: EventLinkPruned, URL: "http://pod/bomb", Via: "http://pod/posts/", Extractor: "ldp-container", Reason: "ldp-container", Detail: FateFanoutPruned}),
		at(epoch, 8*ms, Event{Kind: EventDocumentDereferenced, URL: "http://pod/missing", Depth: 1, Err: "404", DurationUS: 1000}),
		at(epoch, 9*ms, Event{Kind: EventResultEmitted, Row: 1, Sources: []string{"http://pod/card", "http://pod/posts/"}}),
	} {
		topo.Apply(ev)
	}

	if topo.Documents() != 3 || topo.Links() != 5 || topo.Results() != 1 {
		t.Fatalf("counts: %d docs, %d links, %d results", topo.Documents(), topo.Links(), topo.Results())
	}

	snap := topo.Snapshot()
	if len(snap.Nodes) != 3 || !snap.Nodes[0].Seed {
		t.Fatalf("nodes = %+v", snap.Nodes)
	}
	if n := snap.Nodes[0]; n.Status != 200 || n.Triples != 12 || n.Bytes != 800 || n.StartMS != 1 || n.DurMS != 2 {
		t.Errorf("seed node = %+v", n)
	}
	if n := snap.Nodes[1]; n.Depth != 1 || n.StartMS != 4 || n.DurMS != 3 {
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
		{Kind: EventDocumentDereferenced, URL: "http://pod/dead", Depth: 1, Err: "boom"},
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
	if topo.Documents() != 0 || topo.Links() != 0 || topo.Results() != 0 {
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
	if e := NewEmitter(nil, 1, NewTopology()); !e.Active() {
		t.Fatal("an emitter with a topology has an audience without a bus")
	}
	bus := NewBus()
	sub := bus.Subscribe(1024)
	defer sub.Close()
	topo := NewTopology()
	e := NewEmitter(bus, 7, topo)
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
