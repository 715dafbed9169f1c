package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"ltqp/internal/metrics"
)

// Tail-based trace sampling: the keep/drop decision for a trace is made
// when the query *ends*, once its outcome is known — unlike head sampling,
// which must commit before knowing whether the trace will be interesting.
// Under loadgen-scale traffic this keeps the slow tail, every error,
// every budget abort and every degraded run, while dropping the healthy
// bulk, so /debug/traces always holds the traces worth reading at a
// bounded memory cost.
//
// The heavy trace payload (span tree, request timeline, critical path) is
// materialized lazily via the Offer callback only when the trace is kept;
// a dropped trace costs one mutex round and a few comparisons.

// Tail-sampling defaults. A query is "slow" when its latency exceeds the
// moving SlowQuantile of the recent window times SlowFactor — the factor
// keeps ordinary p95 noise out (a plain p95 cut would keep ~5% of healthy
// traffic by construction).
const (
	DefaultTraceCapacity   = 64
	DefaultTraceSampleRate = 0.02
	DefaultSlowQuantile    = 0.95
	DefaultSlowFactor      = 2.0

	slowWindowSize = 256
	slowMinWindow  = 32
)

// TraceOutcome is everything the keep decision needs about a finished
// query — cheap scalar facts only; the expensive payload comes later via
// the fill callback.
type TraceOutcome struct {
	TraceID  string
	QueryID  int64
	Query    string
	Tenant   string
	Start    time.Time
	Duration time.Duration
	TTFR     time.Duration // zero when no result was produced
	Results  int
	Err      string
	// Degraded marks a lenient run that lost documents or absorbed
	// retries; BudgetExceeded marks a resource-ledger abort.
	Degraded       bool
	BudgetExceeded bool
}

// TraceRecord is one kept trace: the outcome plus the materialized payload.
// It is immutable once stored and safe to serve concurrently.
type TraceRecord struct {
	TraceID        string        `json:"trace_id"`
	QueryID        int64         `json:"query_id"`
	Query          string        `json:"query,omitempty"`
	Tenant         string        `json:"tenant,omitempty"`
	Start          time.Time     `json:"start"`
	DurationMS     float64       `json:"duration_ms"`
	TTFRMS         float64       `json:"ttfr_ms,omitempty"`
	Results        int           `json:"results"`
	Err            string        `json:"error,omitempty"`
	Degraded       bool          `json:"degraded,omitempty"`
	BudgetExceeded bool          `json:"budget_exceeded,omitempty"`
	KeepReason     string        `json:"keep_reason"`
	Root           *SpanJSON     `json:"root,omitempty"`
	Requests       []RequestJSON `json:"requests,omitempty"`
	// ServerSpans carries pod-side spans when the exporter could reach the
	// server's span log (same-process harnesses, the trace-smoke artifact)
	// — the merged client+server DAG in one document.
	ServerSpans  []ServerSpan `json:"server_spans,omitempty"`
	CriticalPath *CritPath    `json:"critical_path,omitempty"`
}

// RequestJSON is the wire shape of one recorded dereference, in a kept
// trace and on a critical path, offsets relative to the query's recorder
// epoch.
type RequestJSON struct {
	URL      string  `json:"url"`
	Parent   string  `json:"parent,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	StartMS  float64 `json:"start_ms"`
	DurMS    float64 `json:"duration_ms"`
	ServerMS float64 `json:"server_ms,omitempty"`
	Status   int     `json:"status,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	Cached   bool    `json:"cached,omitempty"`
	Attempt  int     `json:"attempt,omitempty"`
	Err      string  `json:"error,omitempty"`
}

// RequestsJSON converts recorded requests to their kept-trace wire shape.
func RequestsJSON(reqs []metrics.Request, epoch time.Time) []RequestJSON {
	out := make([]RequestJSON, 0, len(reqs))
	for _, q := range reqs {
		out = append(out, RequestJSON{
			URL:      q.URL,
			Parent:   q.Parent,
			Reason:   q.Reason,
			StartMS:  durMS(q.Start.Sub(epoch)),
			DurMS:    durMS(q.Duration()),
			ServerMS: durMS(q.Server),
			Status:   q.Status,
			Bytes:    q.Bytes,
			Cached:   q.Cached,
			Attempt:  q.Attempt,
			Err:      q.Err,
		})
	}
	return out
}

// requests is the reverse of RequestsJSON: the wire rows as recorded
// dereferences against epoch, to the microsecond the wire keeps. The wire
// carries no triple counts.
func requests(rows []RequestJSON, epoch time.Time) []metrics.Request {
	ms := func(v float64) time.Duration { return time.Duration(math.Round(v*1000)) * time.Microsecond }
	out := make([]metrics.Request, 0, len(rows))
	for _, q := range rows {
		start := epoch.Add(ms(q.StartMS))
		out = append(out, metrics.Request{
			URL:     q.URL,
			Parent:  q.Parent,
			Reason:  q.Reason,
			Start:   start,
			End:     start.Add(ms(q.DurMS)),
			Status:  q.Status,
			Bytes:   q.Bytes,
			Cached:  q.Cached,
			Attempt: q.Attempt,
			Server:  ms(q.ServerMS),
			Err:     q.Err,
		})
	}
	return out
}

func durMS(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(d.Microseconds()) / 1000
}

// TraceStoreOptions configure a TraceStore. Zero values take the defaults
// above; a negative SampleRate disables probabilistic keeps entirely.
type TraceStoreOptions struct {
	Capacity     int
	SampleRate   float64
	SlowQuantile float64
	SlowFactor   float64
	// Seed makes the probabilistic sampler deterministic in tests; 0 seeds
	// randomly.
	Seed uint64
	// Metrics, when set, counts keeps by reason (ltqp_traces_kept_total)
	// and drops (ltqp_traces_dropped_total).
	Metrics *Metrics
}

// TraceStore is a bounded ring of tail-sampled traces. All methods are
// safe on a nil receiver and for concurrent use.
type TraceStore struct {
	capacity int
	rate     float64
	quantile float64
	factor   float64

	kept    *CounterVec
	dropped *Counter

	mu     sync.Mutex
	rng    *rand.Rand
	window [slowWindowSize]float64 // recent query durations, seconds
	wi, wn int
	ring   []*TraceRecord // kept traces, oldest first
	seen   int64
}

// NewTraceStore builds a store with the given options.
func NewTraceStore(o TraceStoreOptions) *TraceStore {
	s := &TraceStore{
		capacity: o.Capacity,
		rate:     o.SampleRate,
		quantile: o.SlowQuantile,
		factor:   o.SlowFactor,
	}
	if s.capacity <= 0 {
		s.capacity = DefaultTraceCapacity
	}
	switch {
	case s.rate < 0:
		s.rate = 0
	case s.rate == 0:
		s.rate = DefaultTraceSampleRate
	}
	if s.quantile <= 0 || s.quantile >= 1 {
		s.quantile = DefaultSlowQuantile
	}
	if s.factor <= 0 {
		s.factor = DefaultSlowFactor
	}
	seed := o.Seed
	if seed == 0 {
		seed = rand.Uint64()
	}
	s.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	if m := o.Metrics; m != nil {
		s.kept = m.TracesKept
		s.dropped = m.TracesDropped
	}
	return s
}

// Offer submits a finished query for the keep decision. When the trace is
// kept, fill (if non-nil) is called exactly once to materialize the heavy
// payload on the record before it becomes visible; dropped traces never
// invoke fill. Returns whether the trace was kept and the keep reason
// ("error", "budget", "degraded", "slow" or "sampled").
func (s *TraceStore) Offer(o TraceOutcome, fill func(*TraceRecord)) (bool, string) {
	if s == nil {
		return false, ""
	}
	secs := o.Duration.Seconds()
	s.mu.Lock()
	var reason string
	switch {
	case o.BudgetExceeded:
		reason = "budget"
	case o.Err != "":
		reason = "error"
	case o.Degraded:
		reason = "degraded"
	default:
		if thr, ok := s.slowThresholdLocked(); ok && secs >= thr {
			reason = "slow"
		} else if s.rate > 0 && s.rng.Float64() < s.rate {
			reason = "sampled"
		}
	}
	// Every outcome — kept or not — feeds the moving latency window the
	// slow threshold is computed from.
	s.window[s.wi] = secs
	s.wi = (s.wi + 1) % slowWindowSize
	if s.wn < slowWindowSize {
		s.wn++
	}
	s.seen++
	s.mu.Unlock()

	if reason == "" {
		s.dropped.Inc()
		return false, ""
	}
	rec := &TraceRecord{
		TraceID:        o.TraceID,
		QueryID:        o.QueryID,
		Query:          o.Query,
		Tenant:         o.Tenant,
		Start:          o.Start,
		DurationMS:     durMS(o.Duration),
		TTFRMS:         durMS(o.TTFR),
		Results:        o.Results,
		Err:            o.Err,
		Degraded:       o.Degraded,
		BudgetExceeded: o.BudgetExceeded,
		KeepReason:     reason,
	}
	if fill != nil {
		fill(rec)
	}
	s.mu.Lock()
	s.ring = append(s.ring, rec)
	if len(s.ring) > s.capacity {
		// Drop the oldest; copy to avoid retaining evicted records via the
		// backing array.
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:s.capacity]
	}
	s.mu.Unlock()
	s.kept.With(reason).Inc()
	return true, reason
}

// slowThresholdLocked returns the current "slow" cut in seconds, or false
// during warmup (fewer than slowMinWindow completed queries): with no
// baseline yet, nothing can meaningfully be called slow.
func (s *TraceStore) slowThresholdLocked() (float64, bool) {
	if s.wn < slowMinWindow {
		return 0, false
	}
	buf := make([]float64, s.wn)
	copy(buf, s.window[:s.wn])
	sort.Float64s(buf)
	idx := int(s.quantile * float64(len(buf)))
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	return buf[idx] * s.factor, true
}

// Kept returns the kept traces, newest first.
func (s *TraceStore) Kept() []*TraceRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceRecord, len(s.ring))
	for i, r := range s.ring {
		out[len(s.ring)-1-i] = r
	}
	return out
}

// Get returns the kept trace with the given trace ID, or nil.
func (s *TraceStore) Get(traceID string) *TraceRecord {
	if s == nil || traceID == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Newest match wins (IDs are unique in practice; retries of Offer are not).
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].TraceID == traceID {
			return s.ring[i]
		}
	}
	return nil
}

// Len returns the number of kept traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Seen returns the total number of offered traces.
func (s *TraceStore) Seen() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}
