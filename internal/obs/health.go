package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// DefaultDegradedThreshold is the recent dereference failure ratio above
// which /healthz reports degraded.
const DefaultDegradedThreshold = 0.5

// DefaultHealthWindow is the sliding window over which the recent failure
// ratio is computed.
const DefaultHealthWindow = time.Minute

// HealthChecker turns the cumulative fetch counters into a liveness
// verdict: ok while the recent dereference failure ratio stays at or below
// Threshold, degraded above it. Degraded is an operational warning, not an
// outage — the endpoint still answers queries (possibly partially, under
// lenient mode) — so the probe stays HTTP 200 either way and the JSON body
// carries the distinction.
type HealthChecker struct {
	// Metrics supplies the cumulative fetch counters; nil means always ok.
	Metrics *Metrics
	// Threshold is the failure ratio above which status turns degraded
	// (default DefaultDegradedThreshold).
	Threshold float64
	// Window is the sliding window width (default DefaultHealthWindow).
	Window time.Duration
	// Serving, when set, contributes the shared serving subsystem's state
	// (shared-cache hit ratio and occupancy, singleflight dedup count,
	// admission pressure) to the /healthz body.
	Serving func() *ServingHealth

	mu      sync.Mutex
	samples []healthSample
}

// ServingHealth is the serving-subsystem section of the /healthz body.
type ServingHealth struct {
	// CacheHitRatio is shared-cache hits / (hits + misses), 0 when idle.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// CacheNegativeHits counts dead links answered from a cached 404/410.
	CacheNegativeHits int64 `json:"cache_negative_hits"`
	// CacheBytes / CacheDocuments are the cache's current occupancy.
	CacheBytes     int64 `json:"cache_bytes"`
	CacheDocuments int   `json:"cache_documents"`
	// Revalidations counts conditional refetches of stale entries;
	// NotModified the share answered 304.
	Revalidations int64 `json:"revalidations"`
	NotModified   int64 `json:"not_modified"`
	// SingleflightDedups counts dereferences that joined another caller's
	// in-flight fetch instead of issuing their own.
	SingleflightDedups int64 `json:"singleflight_dedups"`
	// CacheEpoch is the current invalidation epoch.
	CacheEpoch uint64 `json:"cache_epoch"`
	// Admitted / Rejected / Queued describe admission-control pressure.
	Admitted int64 `json:"admitted,omitempty"`
	Rejected int64 `json:"rejected,omitempty"`
	InFlight int   `json:"in_flight,omitempty"`
	Queued   int   `json:"queued,omitempty"`
}

type healthSample struct {
	at       time.Time
	failures int64
	attempts int64
}

// HealthStatus is the /healthz response body.
type HealthStatus struct {
	Status string    `json:"status"` // "ok" or "degraded"
	Time   time.Time `json:"time"`
	// FailureRatio is failed dereference attempts / all attempts within
	// the window (0 when no attempts happened).
	FailureRatio float64 `json:"failure_ratio"`
	// WindowFailures / WindowAttempts are the raw deltas behind the ratio.
	WindowFailures int64   `json:"window_failures"`
	WindowAttempts int64   `json:"window_attempts"`
	WindowSeconds  float64 `json:"window_seconds"`
	Goroutines     int     `json:"goroutines"`
	// Serving reports the shared serving subsystem (shared cache,
	// singleflight, admission) when the endpoint runs one.
	Serving *ServingHealth `json:"serving,omitempty"`
}

// Check computes the current verdict at the given time.
func (h *HealthChecker) Check(now time.Time) HealthStatus {
	st := HealthStatus{Status: "ok", Time: now.UTC(), Goroutines: runtime.NumGoroutine()}
	if h == nil {
		return st
	}
	if h.Serving != nil {
		st.Serving = h.Serving()
	}
	if h.Metrics == nil {
		return st
	}
	threshold := h.Threshold
	if threshold <= 0 {
		threshold = DefaultDegradedThreshold
	}
	window := h.Window
	if window <= 0 {
		window = DefaultHealthWindow
	}
	st.WindowSeconds = window.Seconds()

	failures := h.Metrics.FetchFailures.Value()
	attempts := failures + h.Metrics.DocumentsFetched.Value()

	h.mu.Lock()
	h.samples = append(h.samples, healthSample{at: now, failures: failures, attempts: attempts})
	// Evict everything older than the window except the newest such
	// sample, which serves as the baseline the deltas are measured from.
	cut := 0
	for i, s := range h.samples {
		if now.Sub(s.at) <= window {
			break
		}
		cut = i
	}
	h.samples = h.samples[cut:]
	base := h.samples[0]
	h.mu.Unlock()

	st.WindowFailures = failures - base.failures
	st.WindowAttempts = attempts - base.attempts
	if st.WindowAttempts > 0 {
		st.FailureRatio = float64(st.WindowFailures) / float64(st.WindowAttempts)
	}
	if st.FailureRatio > threshold {
		st.Status = "degraded"
	}
	return st
}

// HealthCheckHandler serves the checker's verdict as JSON. Always HTTP 200:
// the process is alive; "degraded" is carried in the body for alerting.
// A nil checker behaves like the pre-health-tracking probe (always ok).
func HealthCheckHandler(h *HealthChecker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.Encode(h.Check(time.Now()))
	})
}

// StampBuildInfo registers the ltqp_build_info info metric (version +
// toolchain labels, constant 1) and the ltqp_uptime_seconds computed gauge,
// anchored at the given start time. Call it once at process start.
func StampBuildInfo(r *Registry, version string, start time.Time) {
	if version == "" {
		version = "dev"
	}
	r.Info("ltqp_build_info", "Engine build metadata (value is always 1).",
		Label{Name: "version", Value: version},
		Label{Name: "go_version", Value: runtime.Version()})
	r.GaugeFunc("ltqp_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(start).Seconds() })
}
