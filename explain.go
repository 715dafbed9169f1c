package ltqp

import (
	"encoding/json"
	"time"

	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/resource"
)

// explainSchemaVersion identifies the explain-report JSON layout.
const explainSchemaVersion = 1

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
	Contributions []obs.DocMatches `json:"contributions"`
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

// Explain returns the execution's explain report, or nil unless
// Config.Explain was set. Complete once Results closes.
func (r *Result) Explain() *Explain {
	if r.topo == nil && r.prov == nil {
		return nil
	}
	return &Explain{
		Schema:        explainSchemaVersion,
		Query:         r.queryStr,
		Seeds:         r.Seeds,
		DurationMS:    float64(time.Since(r.recorder.Epoch()).Microseconds()) / 1000,
		Contributions: r.prov.Contributions(),
		Topology:      r.topo.Snapshot(),
		Resources:     r.ledger.Snapshot(),
		CriticalPath:  obs.QueryCritPath(r.recorder, r.topo),
		QueuePolicy:   string(r.queuePolicy),
		LimitTrips:    r.recorder.Degradation().LimitTrips,
	}
}

// JSON renders the report as indented JSON.
func (r *Explain) JSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(r, "", "  ")
}
