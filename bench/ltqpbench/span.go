package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer during the traced replay, named
// layer.op. The replay is single-threaded, so the enclosing open span is the
// parent.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Query  int32  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Inside marks a calibration span: the same work already ran inside the
	// named span, where the harness cannot reach, so it is repeated on its
	// own. Its time is credited to its own layer and debited from the layer
	// of the span it names.
	Inside string `json:"inside,omitempty"`
	// Micro marks a measurement the engine's query path does not perform in
	// this form; it is reported but left out of the layer budget.
	Micro bool `json:"micro,omitempty"`
	// Counts taken at the same boundary.
	Count  int64 `json:"count,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	Allocs int64 `json:"allocs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer records spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	query int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: t.query, Name: name})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes the span and returns it for the caller to attach counts.
func (t *tracer) end(id int32) *span {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return s
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children may overlap each other and may stick
// out of the parent; covered time is the union clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerBusy folds spans into nanoseconds of busy time per layer: self time
// for ordinary spans, a transfer between layers for calibration spans.
func layerBusy(spans []span) map[string]int64 {
	busy := map[string]int64{}
	self := selfTimes(spans)
	for i, s := range spans {
		switch {
		case s.Micro:
		case s.Inside != "":
			busy[layerOf(s.Name)] += s.dur()
			busy[layerOf(s.Inside)] -= s.dur()
		default:
			busy[layerOf(s.Name)] += self[i]
		}
	}
	return busy
}

// spanTotals sums one span name's duration and counts.
type spanTotals struct {
	n, ns, count, bytes, allocs int64
}

func totalsByName(spans []span) map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.n++
		t.ns += s.dur()
		t.count += s.Count
		t.bytes += s.Bytes
		t.allocs += s.Allocs
		out[s.Name] = t
	}
	return out
}
