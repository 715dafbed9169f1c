package core

import (
	"encoding/json"
	"time"

	"ltqp/internal/exec"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/resource"
)

// ExplainSchemaVersion identifies the explain-report JSON layout.
const ExplainSchemaVersion = 1

// Explain is the post-execution explain report: where traversal went (the
// link-discovery topology), which documents fed the results (provenance
// contributions), and when results arrived relative to traversal progress
// (the timeline inside the topology). It is the engine-side counterpart of
// the paper's Fig. 4 network waterfall — machine-readable instead of a
// browser devtools screenshot.
type Explain struct {
	Schema     int      `json:"schema"`
	Query      string   `json:"query"`
	Seeds      []string `json:"seeds"`
	DurationMS float64  `json:"duration_ms"`
	// Contributions tallies, per document, how many pattern matches its
	// triples fed into the pipeline.
	Contributions []exec.DocContribution `json:"contributions"`
	// Topology is the traversal graph with the interleaved
	// document/result timeline.
	Topology obs.TopologyJSON `json:"topology"`
	// Resources is the final resource-ledger snapshot: live/peak bytes per
	// layer and budget state. Nil when the query ran without accounting.
	Resources *resource.Snapshot `json:"resources,omitempty"`
	// CriticalPath attributes TTFR and total traversal latency to the
	// dependent dereference chains that gated them.
	CriticalPath *obs.CritPath `json:"critical_path,omitempty"`
	// QueuePolicy names the link-queue discipline the traversal ran with
	// ("fifo" or "guided").
	QueuePolicy string `json:"queue_policy,omitempty"`
	// LimitTrips lists the traversal defenses that fired during this query
	// (deduplicated per limit kind and origin/document).
	LimitTrips []metrics.LimitTrip `json:"limit_trips,omitempty"`
}

// Explain builds the explain report. Call it after Results has closed; it
// returns nil when the execution ran without Options.Explain.
func (x *Execution) Explain() *Explain {
	if x.topo == nil && x.prov == nil {
		return nil
	}
	return &Explain{
		Schema:        ExplainSchemaVersion,
		Query:         x.queryStr,
		Seeds:         x.Seeds,
		DurationMS:    float64(time.Since(x.start).Microseconds()) / 1000,
		Contributions: x.prov.Contributions(),
		Topology:      x.topo.Snapshot(),
		Resources:     x.ledger.Snapshot(),
		CriticalPath:  x.CriticalPath(),
		QueuePolicy:   string(x.queuePolicy),
		LimitTrips:    x.Recorder.LimitTrips(),
	}
}

// JSON renders the report as indented JSON.
func (r *Explain) JSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(r, "", "  ")
}

// DOT renders the report's traversal topology as a Graphviz digraph.
func (x *Execution) DOT() string {
	return x.topo.DOT()
}

// docMatches converts the exec-layer provenance tally to the obs wire type.
func docMatches(cs []exec.DocContribution) []obs.DocMatches {
	out := make([]obs.DocMatches, len(cs))
	for i, c := range cs {
		out[i] = obs.DocMatches{Document: c.Document, Matches: c.Matches}
	}
	return out
}
