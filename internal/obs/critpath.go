package obs

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ltqp/internal/metrics"
)

// Critical-path analysis over a query's dereference DAG. LTQP latency is
// dominated by chains of *dependent* dereferences — document B can only be
// fetched after document A revealed the link — so neither aggregate
// histograms nor the flat waterfall say which fetches actually gated
// time-to-first-result. This file walks the recorded parent links backwards
// from the gating document to a seed and attributes TTFR and total
// traversal latency to that chain, splitting each hop into server cost
// (from Server-Timing) and network/client cost.

// CritPath attributes a query's latency to its gating dereference chains.
type CritPath struct {
	// TTFRMS is the time to first result (0 when none was produced).
	TTFRMS float64 `json:"ttfr_ms,omitempty"`
	// TotalMS is the end of the last dereference relative to the epoch.
	TotalMS float64 `json:"total_ms"`
	// FirstResultChain is the dependent fetch chain (seed → ... → gating
	// document) that gated the first result, offsets relative to the
	// query's recorder epoch.
	FirstResultChain []RequestJSON `json:"first_result_chain,omitempty"`
	// LongestChain is the chain ending at the last-finishing dereference —
	// what gated total traversal time.
	LongestChain []RequestJSON `json:"longest_chain,omitempty"`
	// GatingMS sums FirstResultChain fetch durations: the serialized
	// dereference time on the path to the first result. ServerMS is the
	// server-reported share of it.
	GatingMS float64 `json:"gating_ms,omitempty"`
	ServerMS float64 `json:"server_ms,omitempty"`
}

// QueryCritPath is the critical path of one query's recorded run: rec's
// requests and first result, the gate pinned by the topology's first-result
// sources when the query ran with provenance. Nil before any request.
func QueryCritPath(rec *metrics.Recorder, topo *Topology) *CritPath {
	return ComputeCritPath(rec.Requests(), rec.Epoch(), rec.ResultTimes(), topo.FirstResultSources())
}

// ComputeCritPath derives the critical path from a query's recorded
// requests. resultTimes are result-delivery offsets from epoch (the
// recorder's ResultTimes); firstSources, when known, names the documents
// that produced the first result (provenance from the topology recorder) —
// without it the gating document falls back to the latest-finishing
// successful fetch before the first result.
func ComputeCritPath(reqs []metrics.Request, epoch time.Time, resultTimes []time.Duration, firstSources []string) *CritPath {
	if len(reqs) == 0 {
		return nil
	}
	// Resolve each URL to its defining request: the first successful fetch
	// (when its content became available to the traversal), else the last
	// attempt (for failed documents on the longest chain).
	best := map[string]metrics.Request{}
	for _, q := range reqs {
		cur, ok := best[q.URL]
		switch {
		case !ok:
			best[q.URL] = q
		case !q.Failed() && cur.Failed():
			best[q.URL] = q
		case !q.Failed() && !cur.Failed():
			if q.End.Before(cur.End) { // earliest successful completion
				best[q.URL] = q
			}
		case q.Failed() && cur.Failed():
			if q.End.After(cur.End) { // latest failed attempt
				best[q.URL] = q
			}
		}
	}
	cp := &CritPath{}
	var lastEnd time.Time
	var lastURL string
	for _, q := range reqs {
		if q.End.After(lastEnd) {
			lastEnd = q.End
			lastURL = q.URL
		}
	}
	cp.TotalMS = durMS(lastEnd.Sub(epoch))
	if len(resultTimes) > 0 {
		cp.TTFRMS = durMS(resultTimes[0])
	}

	// Gating document for the first result: the latest-finishing of the
	// documents that produced it, or — without provenance — the
	// latest-finishing successful fetch that completed before the result.
	var gate string
	if len(resultTimes) > 0 {
		var gateEnd time.Time
		if len(firstSources) > 0 {
			for _, u := range firstSources {
				if q, ok := best[u]; ok && q.End.After(gateEnd) {
					gate, gateEnd = u, q.End
				}
			}
		} else {
			cutoff := epoch.Add(resultTimes[0])
			for u, q := range best {
				if !q.Failed() && !q.End.After(cutoff) && q.End.After(gateEnd) {
					gate, gateEnd = u, q.End
				}
			}
		}
	}
	if gate != "" {
		cp.FirstResultChain = chainSteps(best, gate, epoch)
		for _, s := range cp.FirstResultChain {
			cp.GatingMS += s.DurMS
			cp.ServerMS += s.ServerMS
		}
	}
	if lastURL != "" {
		cp.LongestChain = chainSteps(best, lastURL, epoch)
	}
	return cp
}

// chainSteps walks parent links from url back to a seed and returns the
// chain seed-first. A missing parent truncates the chain; a cycle (possible
// with adversarial cross-linking) terminates it.
func chainSteps(best map[string]metrics.Request, url string, epoch time.Time) []RequestJSON {
	var rev []metrics.Request
	seen := map[string]bool{}
	for url != "" && !seen[url] {
		seen[url] = true
		q, ok := best[url]
		if !ok {
			break
		}
		rev = append(rev, q)
		url = q.Parent
	}
	slices.Reverse(rev)
	return RequestsJSON(rev, epoch)
}

// chainURLs returns the chain's URLs in order.
func chainURLs(chain []RequestJSON) []string {
	out := make([]string, len(chain))
	for i, s := range chain {
		out[i] = s.URL
	}
	return out
}

// FirstResultURLs returns the URLs of the first-result chain, seed first.
func (cp *CritPath) FirstResultURLs() []string {
	if cp == nil {
		return nil
	}
	return chainURLs(cp.FirstResultChain)
}

// Render draws the critical path as highlighted waterfall charts.
func (cp *CritPath) Render(width int) string {
	if cp == nil || (len(cp.FirstResultChain) == 0 && len(cp.LongestChain) == 0) {
		return "(no critical path)\n"
	}
	var b strings.Builder
	if len(cp.FirstResultChain) > 0 {
		fmt.Fprintf(&b, "critical path to first result — TTFR %.1fms, chain fetch %.1fms%s:\n",
			cp.TTFRMS, cp.GatingMS, metrics.ServerNote(time.Duration(cp.ServerMS*float64(time.Millisecond))))
		b.WriteString(chainChart(cp.FirstResultChain, width))
	}
	if len(cp.LongestChain) > 0 && !slices.Equal(chainURLs(cp.FirstResultChain), chainURLs(cp.LongestChain)) {
		fmt.Fprintf(&b, "longest dereference chain — gates total %.1fms:\n", cp.TotalMS)
		b.WriteString(chainChart(cp.LongestChain, width))
	}
	return b.String()
}

// chainChart draws a chain with every row marked.
func chainChart(chain []RequestJSON, width int) string {
	mark := map[string]bool{}
	for _, u := range chainURLs(chain) {
		mark[u] = true
	}
	return metrics.Chart(requests(chain, time.Time{}), mark, width)
}
