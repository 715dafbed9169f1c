package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay.query", Start: 0, End: 100},
		// Two children overlapping on [30,40): they cover [10,60).
		{ID: 1, Parent: 0, Name: "deref.dereference", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "store.add_document", Start: 30, End: 60},
		// A grandchild takes from its parent, not from the root.
		{ID: 3, Parent: 1, Name: "podserver.get", Start: 15, End: 25},
		// A child sticking out of its parent is clipped to it.
		{ID: 4, Parent: 0, Name: "exec.eval", Start: 90, End: 120},
		// A child wholly inside an earlier sibling adds nothing.
		{ID: 5, Parent: 0, Name: "extract.links", Start: 45, End: 50},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLayerBusyMovesCalibrationTimeBetweenLayers(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay.query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "deref.dereference", Start: 0, End: 50},
		{ID: 2, Parent: 0, Name: "podserver.get", Start: 50, End: 70, Inside: "deref.dereference"},
		{ID: 3, Parent: 0, Name: "turtle.parse", Start: 70, End: 85, Inside: "deref.dereference"},
		{ID: 4, Parent: 0, Name: "store.match_now", Start: 85, End: 95, Micro: true},
	}
	got := layerBusy(spans)
	want := map[string]int64{"replay": 5, "deref": 50 - 20 - 15, "podserver": 20, "turtle": 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layerBusy = %v, want %v", got, want)
	}
	// What the engine layers hold together is the time of the calls the
	// engine really makes: the dereference.
	if sum := got["deref"] + got["podserver"] + got["turtle"]; sum != 50 {
		t.Errorf("engine layers sum to %d, want the 50 of deref.dereference", sum)
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	tr := newTracer()
	root := tr.begin("replay.query")
	a := tr.begin("sparql.parse")
	tr.end(a)
	b := tr.begin("exec.eval")
	tr.end(b).Count = 7
	tr.end(root)
	c := tr.begin("replay.query")
	tr.end(c)
	var parents []int32
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int32{-1, 0, 0, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	if tr.spans[b].Count != 7 {
		t.Errorf("count not kept on the span")
	}
}
