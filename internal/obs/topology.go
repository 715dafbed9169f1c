package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Topology is the link-discovery graph of one traversal, folded from the
// query's event stream (Apply): a node per dereferenced document (status,
// triples, bytes, timing, depth) and an edge per discovered link, labeled
// with the extractor that found it and with what happened to it (followed,
// deduplicated, pruned). It also captures the result-arrival timeline
// interleaved with document completions, which makes the "first results
// while traversal is still running" behaviour measurable rather than just
// claimed.
//
// All methods are safe on a nil receiver — a nil *Topology is the disabled
// state and costs nothing, the same opt-out pattern as the no-op spans.
// A non-nil topology may be read while events are still being applied.
type Topology struct {
	mu      sync.Mutex
	epoch   time.Time
	nodes   map[string]*TopoNode
	depths  map[string]int // a queued link's depth, by URL
	order   []string
	edges   []TopoEdge
	results []ResultEvent
}

// Edge statuses.
const (
	// EdgeFollowed marks a link accepted into the queue for dereferencing.
	EdgeFollowed = "followed"
	// EdgeDuplicate marks a link rejected because its URL was already
	// queued or dereferenced.
	EdgeDuplicate = "duplicate"
	// EdgeDepthPruned marks a link rejected by the MaxDepth bound.
	EdgeDepthPruned = "depth-pruned"
	// EdgeSelf marks a link pointing back at its own document.
	EdgeSelf = "self"
	// EdgeScopePruned marks a link rejected by the traversal allowlist.
	EdgeScopePruned = "scope-pruned"
	// EdgeLimitPruned marks a link rejected by a traversal defense (a
	// per-origin budget, a per-document fanout cap, the queue cap) or left
	// unfetched at the document cap: the edge status of the Fate* values
	// below.
	EdgeLimitPruned = "limit-pruned"
)

// Link fates beyond the edge statuses above. A discovered link's fate is an
// Edge* or Fate* value: EdgeFollowed becomes a link_queued event, every
// other fate the Detail of a link_pruned event.
const (
	// FateFanoutPruned: the source document already contributed its
	// per-document maximum of links.
	FateFanoutPruned = "fanout-pruned"
	// FateQueueCapPruned: the traversal already accepted its maximum total
	// of distinct links.
	FateQueueCapPruned = "queue-cap-pruned"
	// FateOriginBudgetPruned: the link was queued, but when its turn came
	// its origin had used up its document or byte budget.
	FateOriginBudgetPruned = "origin-budget-pruned"
	// FateDocCapPruned: the link was queued, but when its turn came the
	// traversal had fetched its MaxDocuments.
	FateDocCapPruned = "doc-cap-pruned"
)

// TopoNode is one dereferenced (or attempted) document. It spans from its
// first attempt's start to its last attempt's end and shows the last
// attempt's outcome.
type TopoNode struct {
	URL     string  `json:"url"`
	Depth   int     `json:"depth"`
	Status  int     `json:"status,omitempty"`
	Triples int     `json:"triples,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"duration_ms"`
	Seed    bool    `json:"seed,omitempty"`
	Error   string  `json:"error,omitempty"`

	start time.Time // the first attempt's
}

// TopoEdge is one discovered link.
type TopoEdge struct {
	// From is the document the link was found in; To its target.
	From string `json:"from"`
	To   string `json:"to"`
	// Extractor names the link extractor that produced the link
	// ("ldp-container", "type-index", "solid-profile", "match", ...;
	// "seed" for the synthetic seed edges).
	Extractor string `json:"extractor"`
	// Reason is the link's discovery label, used for queue priorities; it
	// differs from Extractor when one extractor emits several link kinds
	// (solid-profile emits "storage" links, type-index emits
	// "type-index-container").
	Reason string `json:"reason,omitempty"`
	// Status tells what the traversal did with the link (EdgeFollowed,
	// EdgeDuplicate, EdgeDepthPruned, EdgeSelf).
	Status string `json:"status"`
}

// ResultEvent is one delivered solution on the execution timeline.
type ResultEvent struct {
	Row  int     `json:"row"`
	AtMS float64 `json:"at_ms"`
	// Sources are the result's source documents (present when the
	// execution ran with provenance enabled).
	Sources []string `json:"sources,omitempty"`
}

// TimelineEvent interleaves document completions and result arrivals.
type TimelineEvent struct {
	AtMS float64 `json:"at_ms"`
	// Kind is "document" or "result".
	Kind string `json:"kind"`
	// Ref is the document URL or the result row number rendered as text.
	Ref string `json:"ref"`
}

// TopologyJSON is the exported form of a topology.
type TopologyJSON struct {
	Nodes    []TopoNode      `json:"nodes"`
	Edges    []TopoEdge      `json:"edges"`
	Results  []ResultEvent   `json:"results"`
	Timeline []TimelineEvent `json:"timeline"`
}

// NewTopology returns an empty topology. Timeline offsets are relative to
// the time of the first event applied — a query's query_started.
func NewTopology() *Topology {
	return &Topology{nodes: map[string]*TopoNode{}, depths: map[string]int{}}
}

func (t *Topology) sinceMS(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Microseconds()) / 1000
}

// node returns the node for url, creating it at the given depth.
// Caller holds t.mu.
func (t *Topology) node(url string, depth int) *TopoNode {
	n, ok := t.nodes[url]
	if !ok {
		n = &TopoNode{URL: url, Depth: depth}
		t.nodes[url] = n
		t.order = append(t.order, url)
	}
	return n
}

// Apply folds one engine event into the topology. The topology is a pure
// function of its query's event sequence: the engine applies each event as
// it emits it, ReadJournal applies the recorded ones, and both arrive at the
// same graph. A document_dereferenced attempt becomes (or extends) a node at
// the depth its link was queued with, a link_queued a followed edge — a seed
// node too when it has no source document — a link_pruned an edge labeled
// with its fate, a result_emitted a point on the result timeline; every
// other kind is ignored.
func (t *Topology) Apply(ev Event) {
	if t == nil {
		return
	}
	// Wall clock only: a replayed event has no monotonic reading, and the
	// live fold must compute the offsets the replay will.
	at := ev.Time.Round(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch.IsZero() {
		t.epoch = at
	}
	switch ev.Kind {
	case EventDocumentDereferenced:
		n := t.node(ev.URL, t.depths[ev.URL])
		n.Status, n.Triples, n.Bytes, n.Error = ev.Status, ev.Triples, ev.Bytes, ev.Err
		if ev.Attempt <= 1 {
			n.start = at.Add(-time.Duration(ev.DurationUS) * time.Microsecond)
			n.StartMS = t.sinceMS(n.start)
		}
		n.DurMS = float64(at.Sub(n.start).Microseconds()) / 1000
	case EventLinkQueued:
		t.depths[ev.URL] = ev.Depth
		if ev.Via == "" {
			t.node(ev.URL, 0).Seed = true
		}
		t.edges = append(t.edges, TopoEdge{From: ev.Via, To: ev.URL, Extractor: ev.Extractor, Reason: ev.Reason, Status: EdgeFollowed})
	case EventLinkPruned:
		status := ev.Detail
		switch status {
		case FateFanoutPruned, FateQueueCapPruned, FateOriginBudgetPruned, FateDocCapPruned:
			status = EdgeLimitPruned
		}
		t.edges = append(t.edges, TopoEdge{From: ev.Via, To: ev.URL, Extractor: ev.Extractor, Reason: ev.Reason, Status: status})
	case EventResultEmitted:
		t.results = append(t.results, ResultEvent{Row: ev.Row - 1, AtMS: t.sinceMS(at), Sources: ev.Sources})
	}
}

// FirstResultSources returns the source documents of the earliest recorded
// result (nil without results or provenance) — the critical-path analysis
// uses them to pin the dereference that gated TTFR.
func (t *Topology) FirstResultSources() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.results) == 0 {
		return nil
	}
	return append([]string(nil), t.results[0].Sources...)
}

// summary counts the recorded nodes, edges (seed edges included) and
// result arrivals.
func (t *Topology) summary() topoSummaryJSON {
	if t == nil {
		return topoSummaryJSON{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return topoSummaryJSON{Documents: len(t.nodes), Links: len(t.edges), Results: len(t.results)}
}

// Snapshot exports the topology. Nodes appear in first-touch order, edges
// in discovery order, and the timeline interleaves document completions
// with result arrivals sorted by offset.
func (t *Topology) Snapshot() TopologyJSON {
	if t == nil {
		return TopologyJSON{Nodes: []TopoNode{}, Edges: []TopoEdge{}, Results: []ResultEvent{}, Timeline: []TimelineEvent{}}
	}
	t.mu.Lock()
	out := TopologyJSON{
		Nodes:   make([]TopoNode, 0, len(t.order)),
		Edges:   append([]TopoEdge{}, t.edges...),
		Results: append([]ResultEvent{}, t.results...),
	}
	for _, url := range t.order {
		out.Nodes = append(out.Nodes, *t.nodes[url])
	}
	t.mu.Unlock()

	out.Timeline = make([]TimelineEvent, 0, len(out.Nodes)+len(out.Results))
	for _, n := range out.Nodes {
		out.Timeline = append(out.Timeline, TimelineEvent{AtMS: n.StartMS + n.DurMS, Kind: "document", Ref: n.URL})
	}
	for _, r := range out.Results {
		out.Timeline = append(out.Timeline, TimelineEvent{AtMS: r.AtMS, Kind: "result", Ref: fmt.Sprintf("%d", r.Row)})
	}
	sort.SliceStable(out.Timeline, func(i, j int) bool { return out.Timeline[i].AtMS < out.Timeline[j].AtMS })
	return out
}

// DOT renders the topology as a Graphviz digraph: one box per document
// (seeds doubly outlined, failures dashed red) and one edge per link,
// labeled with the extractor; deduplicated or pruned links are dotted gray.
func (t *Topology) DOT() string {
	snap := t.Snapshot()
	var b strings.Builder
	b.WriteString("digraph traversal {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for _, n := range snap.Nodes {
		label := fmt.Sprintf("%s\\n%d triples, %.1fms", dotShorten(n.URL), n.Triples, n.DurMS)
		attrs := fmt.Sprintf("label=\"%s\"", dotEscape(label))
		if n.Seed {
			attrs += ", peripheries=2"
		}
		if n.Error != "" {
			attrs += ", style=dashed, color=red"
		}
		fmt.Fprintf(&b, "  %q [%s];\n", n.URL, attrs)
	}
	for _, e := range snap.Edges {
		if e.From == "" {
			continue // seed edges have no source node to draw
		}
		attrs := fmt.Sprintf("label=%q, fontsize=8", e.Extractor)
		if e.Status != EdgeFollowed {
			attrs += ", style=dotted, color=gray"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.From, e.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// dotShorten trims long URLs for node labels, keeping the tail (the
// document path is the informative part).
func dotShorten(u string) string {
	if len(u) <= 48 {
		return u
	}
	return "..." + u[len(u)-45:]
}

// dotEscape escapes a DOT double-quoted string label (backslash-escapes
// quotes; \n sequences are produced by the caller).
func dotEscape(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
