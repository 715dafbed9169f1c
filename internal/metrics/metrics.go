// Package metrics records the HTTP request timeline of a traversal-based
// query execution and renders it as a "resource waterfall", reproducing the
// browser network-inspector views of the paper's Figs. 4 and 5: which
// documents were fetched, which fetch caused which (via links), how deep
// the dependency chains run, and how much ran in parallel.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
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
// concurrent use. An engine query's epoch, rows, result times and limit
// trips are written by the event fold of internal/obs, live and on replay.
type Recorder struct {
	mu       sync.Mutex
	started  time.Time
	requests rows[Request]
	results  rows[time.Time]
	queue    rows[QueueSample]
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

// SetEpoch moves the epoch that result times and queue samples count from.
func (r *Recorder) SetEpoch(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started = t
}

// Record appends one request event.
func (r *Recorder) Record(req Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests.append(req)
}

// RecordResult notes that a query result was delivered at time at.
func (r *Recorder) RecordResult(at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results.append(at)
}

// RecordQueueSample notes the link queue's length and total accepted URLs
// at time now.
func (r *Recorder) RecordQueueSample(length, seen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queue.append(QueueSample{At: time.Since(r.started), Length: length, Seen: seen})
}

// RecordLimitTrip notes a traversal defense firing.
func (r *Recorder) RecordLimitTrip(t LimitTrip) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trips = append(r.trips, t)
}

// QueueEvolution returns the recorded link-queue samples in time order: a
// sample's offset is read under the lock it is appended under.
func (r *Recorder) QueueEvolution() []QueueSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queue.appendTo(nil)
}

// PeakQueueLength returns the maximum observed queue length.
func (r *Recorder) PeakQueueLength() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	peak := 0
	for i := 0; i < r.queue.len(); i++ {
		peak = max(peak, r.queue.at(i).Length)
	}
	return peak
}

// Requests returns a copy of the recorded requests sorted by start time.
func (r *Recorder) Requests() []Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.requests.appendTo(make([]Request, 0, r.requests.len()))
	slices.SortFunc(out, func(a, b Request) int { return a.Start.Compare(b.Start) })
	return out
}

// ResultTimes returns the recorded result delivery offsets from the epoch.
func (r *Recorder) ResultTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]time.Duration, r.results.len())
	for i := range out {
		out[i] = r.results.at(i).Sub(r.started)
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
	r.mu.Lock()
	defer r.mu.Unlock()
	reqs := &r.requests
	s := Stats{Requests: reqs.len()}
	if s.Requests == 0 {
		return s
	}
	// The log in start order, as a permutation of its indices. The sort
	// makes the comparisons Requests' sort of a copy makes, so requests that
	// start at the same instant come out in the same order.
	order := make([]int32, s.Requests)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return reqs.at(int(a)).Start.Compare(reqs.at(int(b)).Start) })
	// Per document: its depth in the fetch tree and whether any request for
	// it succeeded. In start order a parent precedes its children.
	type doc struct {
		depth int
		ok    bool
	}
	docs := make(map[string]doc, s.Requests)
	hosts := map[string]struct{}{}
	// Max parallelism is a sweep over starts (in order) and ends, as offsets
	// from the first start.
	epoch := reqs.at(int(order[0])).Start
	ends := make([]time.Duration, s.Requests)
	maxEnd := reqs.at(int(order[0])).End
	for i, j := range order {
		q := reqs.at(int(j))
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
	slices.Sort(ends)
	s.MaxParallel, _ = inFlight(ends, func(i int) time.Duration { return reqs.at(int(order[i])).Start.Sub(epoch) })
	return s
}

// Concurrency profiles how the requests overlapped: the most in flight at
// once (Stats.MaxParallel) and the mean number in flight over the time any
// was (0 when no request has a measurable span).
func Concurrency(reqs []Request) (peak int, mean float64) {
	if len(reqs) == 0 {
		return 0, 0
	}
	offsets := make([]time.Duration, 2*len(reqs))
	starts, ends := offsets[:len(reqs)], offsets[len(reqs):]
	for i, q := range reqs {
		starts[i], ends[i] = q.Start.Sub(reqs[0].Start), q.End.Sub(reqs[0].Start)
	}
	slices.Sort(starts)
	slices.Sort(ends)
	return inFlight(ends, func(i int) time.Duration { return starts[i] })
}

// inFlight sweeps request spans, given as their end offsets in ascending
// order and the i-th smallest start offset as start(i), for the most
// requests in flight at once and the mean number in flight weighted by
// time. A request that ends the instant another starts does not overlap it
// (nor, with zero duration, itself): ends go first.
func inFlight(ends []time.Duration, start func(i int) time.Duration) (peak int, mean float64) {
	cur, ended := 0, 0
	var prev, busy time.Duration
	var weighted float64
	step := func(t time.Duration, delta int) {
		if cur > 0 {
			weighted += float64(cur) * (t - prev).Seconds()
			busy += t - prev
		}
		prev = t
		cur += delta
	}
	for i := range ends {
		t := start(i)
		for ; ended < len(ends) && ends[ended] <= t; ended++ {
			step(ends[ended], -1)
		}
		step(t, 1)
		peak = max(peak, cur)
	}
	for ; ended < len(ends); ended++ {
		step(ends[ended], -1)
	}
	if busy > 0 {
		mean = weighted / busy.Seconds()
	}
	return peak, mean
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
	r.mu.Lock()
	d := Degradation{LimitTrips: slices.Clone(r.trips)}
	r.mu.Unlock()
	reqs := r.Requests()
	// A URL is done once it succeeded or was listed as failed.
	done := map[string]bool{}
	for _, q := range reqs {
		if q.Attempt > 1 {
			d.Retries++
		}
		done[q.URL] = done[q.URL] || !q.Failed()
	}
	for _, q := range reqs {
		if !done[q.URL] {
			done[q.URL] = true
			d.FailedDocuments = append(d.FailedDocuments, q.URL)
		}
	}
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
// tab of Figs. 4 and 5: Chart of the requests in start order, then the
// traversal statistics.
func (r *Recorder) Waterfall(width int) string {
	reqs := r.Requests()
	if len(reqs) == 0 {
		return "(no requests)\n"
	}
	var b strings.Builder
	b.WriteString(Chart(reqs, nil, width))
	s := r.Stats()
	fmt.Fprintf(&b, "\n%d requests (%d failed, %d retries), %d triples, %d bytes, max depth %d, max parallel %d, wall %s\n",
		s.Requests, s.Failed, s.Retries, s.TotalTriples, s.TotalBytes, s.MaxDepth, s.MaxParallel, s.WallTime.Round(time.Microsecond))
	if s.FailedDocuments > 0 {
		fmt.Fprintf(&b, "%d documents abandoned after exhausting retries\n", s.FailedDocuments)
	}
	return b.String()
}
