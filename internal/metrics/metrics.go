// Package metrics records the HTTP request timeline of a traversal-based
// query execution and renders it as a "resource waterfall", reproducing the
// browser network-inspector views of the paper's Figs. 4 and 5: which
// documents were fetched, which fetch caused which (via links), how deep
// the dependency chains run, and how much ran in parallel.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ltqp/internal/timeline"
)

// Request is one recorded HTTP dereference.
type Request struct {
	// URL is the dereferenced document.
	URL string
	// Parent is the document whose links caused this fetch ("" for seeds).
	Parent string
	// Reason names the link extractor that discovered the URL.
	Reason string
	// Start and End bracket the fetch.
	Start, End time.Time
	// Status is the HTTP status code (0 on transport error).
	Status int
	// Bytes is the response body size.
	Bytes int64
	// Triples is the number of triples parsed from the document.
	Triples int
	// Cached marks requests served from the engine's document cache
	// rather than the network (the "(disk cache)" rows of Fig. 4).
	Cached bool
	// Attempt is the 1-based fetch attempt for this URL within one
	// dereference; values above 1 are retries after transient failures.
	// 0 is treated as 1 (recorders predating retry support).
	Attempt int
	// Server is the server-reported share of the fetch (the sum of the
	// response's Server-Timing dur= entries): handler time plus any
	// configured or fault-injected delay. Duration()-Server approximates
	// network cost. Zero when the server sent no Server-Timing header.
	Server time.Duration
	// Err records a fetch or parse failure.
	Err string
}

// Duration returns the wall time of the request.
func (r Request) Duration() time.Duration { return r.End.Sub(r.Start) }

// Failed reports whether the request brought no document: a transport
// error (no status), an HTTP error status, or a fetch or parse failure. A
// cache hit fails exactly when the fetch it replays did (a negative entry).
func (r Request) Failed() bool { return r.Status == 0 || r.Status >= 400 || r.Err != "" }

// QueueSample is one observation of the link queue's state, following the
// queue-evolution analysis of Eschauzier et al. [34] that the paper cites
// as a direction for link-queue enhancements.
type QueueSample struct {
	// At is the sample offset from the recorder epoch.
	At time.Duration
	// Length is the number of links queued at the sample time.
	Length int
	// Seen is the number of distinct URLs ever accepted by the queue.
	Seen int
}

// LimitTrip records one firing of a traversal defense: which limit, where,
// and the limit-vs-observed accounting. Trips ride in the degradation
// report, so a contained attack (or an overly tight budget) is visible to
// the caller instead of silently shrinking the answer set.
type LimitTrip struct {
	// Kind names the defense ("max-docs-per-origin", "max-bytes-per-origin",
	// "scope", "fanout", "queue-cap", "doc-bytes", "slow-body").
	Kind string
	// Origin is the origin whose budget tripped (empty for global caps).
	Origin string
	// URL is the link or document that crossed the limit.
	URL string
	// Limit and Observed give the configured bound and the value that
	// crossed it.
	Limit    int64
	Observed int64
}

// String renders the trip for logs and --stats output.
func (t LimitTrip) String() string {
	where := t.Origin
	if where == "" {
		where = t.URL
	}
	return fmt.Sprintf("%s at %s (%d > limit %d)", t.Kind, where, t.Observed, t.Limit)
}

// Recorder collects request events and result timestamps. It is safe for
// concurrent use.
type Recorder struct {
	mu       sync.Mutex
	started  time.Time
	requests []Request
	results  []time.Time
	queue    []QueueSample
	trips    []LimitTrip
}

// NewRecorder returns a recorder with its epoch set to now.
func NewRecorder() *Recorder {
	return &Recorder{started: time.Now()}
}

// Epoch returns the recorder's start time.
func (r *Recorder) Epoch() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started
}

// Record appends one request event.
func (r *Recorder) Record(req Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests = append(r.requests, req)
}

// RecordResult notes that a query result was delivered at time now.
func (r *Recorder) RecordResult() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, time.Now())
}

// RecordQueueSample notes the link queue's length and total accepted URLs
// at time now.
func (r *Recorder) RecordQueueSample(length, seen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queue = append(r.queue, QueueSample{At: time.Since(r.started), Length: length, Seen: seen})
}

// RecordLimitTrip notes a traversal defense firing.
func (r *Recorder) RecordLimitTrip(t LimitTrip) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trips = append(r.trips, t)
}

// LimitTrips returns the recorded defense firings in trip order.
func (r *Recorder) LimitTrips() []LimitTrip {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LimitTrip, len(r.trips))
	copy(out, r.trips)
	return out
}

// QueueEvolution returns the recorded link-queue samples in time order.
func (r *Recorder) QueueEvolution() []QueueSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueueSample, len(r.queue))
	copy(out, r.queue)
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// PeakQueueLength returns the maximum observed queue length.
func (r *Recorder) PeakQueueLength() int {
	peak := 0
	for _, s := range r.QueueEvolution() {
		if s.Length > peak {
			peak = s.Length
		}
	}
	return peak
}

// Requests returns a copy of the recorded requests sorted by start time.
func (r *Recorder) Requests() []Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.requests)
	slices.SortFunc(out, func(a, b Request) int { return a.Start.Compare(b.Start) })
	return out
}

// ResultTimes returns the recorded result delivery offsets from the epoch.
func (r *Recorder) ResultTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, len(r.results))
	for i, t := range r.results {
		out[i] = t.Sub(r.started)
	}
	return out
}

// TimeToFirstResult returns the delay from epoch to the first result, and
// false when no result was recorded.
func (r *Recorder) TimeToFirstResult() (time.Duration, bool) {
	times := r.ResultTimes()
	if len(times) == 0 {
		return 0, false
	}
	return times[0], true
}

// Stats are aggregate traversal statistics.
type Stats struct {
	Requests      int
	Failed        int
	TotalBytes    int64
	TotalTriples  int
	MaxDepth      int
	MaxParallel   int
	WallTime      time.Duration
	DistinctHosts int
	// Retries counts retry attempts (request events with Attempt > 1).
	Retries int
	// FailedDocuments counts distinct URLs that never yielded a
	// successful fetch — the documents a lenient traversal ran without.
	FailedDocuments int
	// CacheHits counts documents served from the engine's document cache
	// rather than the network (the "(disk cache)" rows of Fig. 4).
	CacheHits int
	// NegativeHits counts requests the cache answered with the failure it
	// keeps for a document that does not exist. They are in Failed, not in
	// CacheHits: Requests - CacheHits - Failed is what the network delivered.
	NegativeHits int
}

// Stats aggregates the recorded events.
func (r *Recorder) Stats() Stats {
	reqs := r.Requests()
	s := Stats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return s
	}
	// Per document: its depth in the fetch tree and whether any request for
	// it succeeded. reqs is in start order, so a parent precedes its children.
	type doc struct {
		depth int
		ok    bool
	}
	docs := make(map[string]doc, len(reqs))
	hosts := map[string]struct{}{}
	// Max parallelism is a sweep over starts (reqs, in order) and ends, as
	// offsets from the first start.
	epoch := reqs[0].Start
	ends := make([]time.Duration, len(reqs))
	maxEnd := reqs[0].End
	for i, q := range reqs {
		d := docs[q.URL]
		d.depth = 0
		if q.Parent != "" {
			d.depth = docs[q.Parent].depth + 1
		}
		s.MaxDepth = max(s.MaxDepth, d.depth)
		failed := q.Failed()
		switch {
		case failed && q.Cached:
			s.NegativeHits++
			s.Failed++
		case failed:
			s.Failed++
		case q.Cached:
			s.CacheHits++
		}
		d.ok = d.ok || !failed
		docs[q.URL] = d
		if q.Attempt > 1 {
			s.Retries++
		}
		s.TotalBytes += q.Bytes
		s.TotalTriples += q.Triples
		hosts[hostAndPod(q.URL)] = struct{}{}
		ends[i] = q.End.Sub(epoch)
		if q.End.After(maxEnd) {
			maxEnd = q.End
		}
	}
	s.DistinctHosts = len(hosts)
	for _, d := range docs {
		if !d.ok {
			s.FailedDocuments++
		}
	}
	s.WallTime = maxEnd.Sub(epoch)
	// A request that ends the instant another starts does not overlap it
	// (nor, with zero duration, itself): ends go first.
	slices.Sort(ends)
	cur, ended := 0, 0
	for _, q := range reqs {
		for start := q.Start.Sub(epoch); ended < len(ends) && ends[ended] <= start; ended++ {
			cur--
		}
		cur++
		s.MaxParallel = max(s.MaxParallel, cur)
	}
	return s
}

// Degradation summarizes how far a lenient execution ran short of the
// fault-free ideal: which documents were abandoned after exhausting their
// retries, and how many retry attempts the traversal absorbed. It makes
// partial results observable rather than silent — a lenient engine can
// report "answered from all but these N documents".
type Degradation struct {
	// FailedDocuments are the distinct URLs that never yielded a
	// successful fetch, ordered by first attempt.
	FailedDocuments []string
	// Retries counts retry attempts (request events with Attempt > 1),
	// including those that eventually succeeded.
	Retries int
	// LimitTrips are the traversal defenses that fired during the
	// execution (per-origin budgets, scope allowlist, fanout/queue caps,
	// oversized/slow-body cutoffs) — each one a place the traversal
	// deliberately stopped short of exhaustive.
	LimitTrips []LimitTrip
}

// Degraded reports whether any document was lost, retried, or cut off by a
// traversal defense.
func (d Degradation) Degraded() bool {
	return len(d.FailedDocuments) > 0 || d.Retries > 0 || len(d.LimitTrips) > 0
}

// Degradation computes the degradation summary from the recorded events.
func (r *Recorder) Degradation() Degradation {
	var d Degradation
	succeeded := map[string]bool{}
	for _, q := range r.Requests() {
		if q.Attempt > 1 {
			d.Retries++
		}
		if !q.Failed() {
			succeeded[q.URL] = true
		}
	}
	seen := map[string]bool{}
	for _, q := range r.Requests() {
		if succeeded[q.URL] || seen[q.URL] {
			continue
		}
		seen[q.URL] = true
		d.FailedDocuments = append(d.FailedDocuments, q.URL)
	}
	d.LimitTrips = r.LimitTrips()
	return d
}

// hostAndPod extracts "host/pods/<id>" style prefixes so that multi-pod
// traversal on a single simulated host still counts distinct pods. The
// prefix is returned as a substring of u.
func hostAndPod(u string) string {
	rest := u
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	host, path, _ := strings.Cut(rest, "/")
	if strings.HasPrefix(path, "pods/") {
		id, _, _ := strings.Cut(path[len("pods/"):], "/")
		return rest[:len(host)+len("/pods/")+len(id)]
	}
	return host
}

// PodsTouched counts the distinct simulated pods among the requests.
func (r *Recorder) PodsTouched() int {
	pods := map[string]bool{}
	for _, q := range r.Requests() {
		key := hostAndPod(q.URL)
		if strings.Contains(key, "/pods/") {
			pods[key] = true
		}
	}
	return len(pods)
}

// Waterfall renders an ASCII resource waterfall like the browser network
// tab of Figs. 4 and 5: one row per request in start order, bars on a
// common time axis, with status, size and the discovery reason.
func (r *Recorder) Waterfall(width int) string {
	reqs := r.Requests()
	if len(reqs) == 0 {
		return "(no requests)\n"
	}
	epoch := reqs[0].Start
	var b strings.Builder
	b.WriteString(timeline.Render(WaterfallRows(reqs, epoch, nil), timeline.Options{Width: width}))
	s := r.Stats()
	fmt.Fprintf(&b, "\n%d requests (%d failed, %d retries), %d triples, %d bytes, max depth %d, max parallel %d, wall %s\n",
		s.Requests, s.Failed, s.Retries, s.TotalTriples, s.TotalBytes, s.MaxDepth, s.MaxParallel, s.WallTime.Round(time.Microsecond))
	if s.FailedDocuments > 0 {
		fmt.Fprintf(&b, "%d documents abandoned after exhausting retries\n", s.FailedDocuments)
	}
	return b.String()
}

// shorten abbreviates long URLs for display, keeping the tail.
func shorten(u string, max int) string { return timeline.Shorten(u, max) }

// WaterfallRows converts requests to timeline rows against the given epoch:
// status/cache/error columns, retry annotation in the note, and rows whose
// URL appears in mark drawn highlighted (the critical-path rendering in
// /debug/traces). Shared by Waterfall and the obs trace views.
func WaterfallRows(reqs []Request, epoch time.Time, mark map[string]bool) []timeline.Row {
	rows := make([]timeline.Row, 0, len(reqs))
	for _, q := range reqs {
		status := fmt.Sprintf("%d", q.Status)
		if q.Err != "" {
			status = "ERR"
		}
		if q.Cached {
			status = "cache"
		}
		note := q.Reason
		if q.Attempt > 1 {
			note += fmt.Sprintf(" (retry %d)", q.Attempt-1)
		}
		rows = append(rows, timeline.Row{
			Label:  q.URL,
			Status: status,
			Bytes:  q.Bytes,
			Start:  q.Start.Sub(epoch),
			End:    q.End.Sub(epoch),
			Note:   note,
			Mark:   mark[q.URL],
		})
	}
	return rows
}

// DependencyEdges returns parent→child fetch dependencies, reproducing the
// "some HTTP requests depend on other requests due to links between them"
// aspect of the demo (Fig. 4).
func (r *Recorder) DependencyEdges() [][2]string {
	var out [][2]string
	for _, q := range r.Requests() {
		if q.Parent != "" {
			out = append(out, [2]string{q.Parent, q.URL})
		}
	}
	return out
}
