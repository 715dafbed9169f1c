package obs

import (
	"net/http"
	"strconv"

	"ltqp/internal/resource"
)

// Metrics is the engine's standard instrument set, registered under the
// ltqp_ namespace. One Metrics aggregates across every query an engine
// executes — the process-level counterpart of the per-query
// metrics.Recorder. All fields tolerate a nil Metrics receiver through the
// nil-safety of the instruments themselves, so instrumented code calls
// m.Something().Inc() unconditionally.
type Metrics struct {
	QueriesStarted   *Counter
	QueriesSucceeded *Counter
	QueriesFailed    *Counter
	QueriesInFlight  *Gauge

	DocumentsFetched *Counter // successful network fetches (parsed documents)
	FetchFailures    *Counter // attempts that ended in error (incl. retried)
	Retries          *Counter // attempts beyond the first for a document
	BytesFetched     *Counter
	TriplesParsed    *Counter

	// CacheHits counts dereferences served by the shared document cache
	// without a request of their own (its misses: SharedCacheMisses).
	CacheHits *Counter

	LinksQueued    *Counter
	LinkQueueDepth *Gauge
	// LinksByExtractor counts accepted links per link-extractor name.
	LinksByExtractor *CounterVec
	// DocumentsByStatus counts completed dereferences per HTTP status code.
	DocumentsByStatus *CounterVec

	ResultsEmitted *Counter

	// Shared serving subsystem (internal/serve): the cross-engine document
	// cache with revalidation, singleflight dereference dedup, admission
	// control and the result cache.
	SharedCacheHits          *Counter
	SharedCacheNegativeHits  *Counter
	SharedCacheMisses        *Counter
	SharedCacheRevalidations *Counter // conditional refetches issued for stale entries
	SharedCacheNotModified   *Counter // revalidations answered 304 (cached copy kept)
	SharedCacheEvictions     *Counter
	SharedCacheBytes         *Gauge // current byte occupancy of the shared cache
	SharedCacheDocuments     *Gauge // documents currently cached
	SingleflightDedups       *Counter
	QueriesAdmitted          *Counter
	QueriesRejected          *Counter
	AdmissionQueueDepth      *Gauge
	ResultCacheHits          *Counter
	ResultCacheMisses        *Counter

	DerefDuration     *Histogram // seconds per successful dereference (incl. cache hits)
	TimeToFirstResult *Histogram // seconds from query start to first solution
	QueryDuration     *Histogram // seconds per completed query

	// Resource ledger instruments: per-query peak memory distribution,
	// cumulative charged bytes per tenant, and budget cancellations.
	QueryMemPeak      *Histogram  // bytes, high-water mark per finished query
	TenantMemCharged  *CounterVec // cumulative ledger-charged bytes by tenant
	MemBudgetExceeded *Counter    // queries cancelled for crossing Config.MemBudget

	// EventsDropped counts events discarded per named bus subscriber
	// (journal, sse, slog) because its buffer was full.
	EventsDropped *CounterVec

	// Tail-sampling instruments: traces retained by the trace store (by
	// keep reason: error, budget, degraded, slow, sampled) vs. dropped.
	TracesKept    *CounterVec
	TracesDropped *Counter

	// Traversal-defense instruments: limit trips by kind (docs-per-origin,
	// bytes-per-origin, scope, fanout, queue-cap, doc-bytes, slow-body)
	// and links pruned by the scope allowlist.
	LimitTrips      *CounterVec
	LinksOutOfScope *Counter
}

// NewMetrics registers the standard instrument set on r. A nil registry
// yields a Metrics whose instruments are all nil (every operation no-ops).
func NewMetrics(r *Registry) *Metrics {
	return &Metrics{
		QueriesStarted:   r.Counter("ltqp_queries_total", "Queries started."),
		QueriesSucceeded: r.Counter("ltqp_queries_succeeded_total", "Queries completed without error."),
		QueriesFailed:    r.Counter("ltqp_queries_failed_total", "Queries that ended with a traversal or execution error."),
		QueriesInFlight:  r.Gauge("ltqp_queries_in_flight", "Queries currently executing."),

		DocumentsFetched: r.Counter("ltqp_documents_fetched_total", "Documents successfully dereferenced over the network."),
		FetchFailures:    r.Counter("ltqp_fetch_failures_total", "Dereference attempts that failed (transport, HTTP, or parse)."),
		Retries:          r.Counter("ltqp_fetch_retries_total", "Dereference attempts beyond the first for a document."),
		BytesFetched:     r.Counter("ltqp_bytes_fetched_total", "Response body bytes read."),
		TriplesParsed:    r.Counter("ltqp_triples_parsed_total", "Triples parsed from dereferenced documents."),

		CacheHits: r.Counter("ltqp_cache_hits_total", "Dereferences served from the document cache without a request of their own."),

		LinksQueued:       r.Counter("ltqp_links_queued_total", "Links accepted by link queues."),
		LinkQueueDepth:    r.Gauge("ltqp_link_queue_depth", "Links currently queued across in-flight traversals."),
		LinksByExtractor:  r.CounterVec("ltqp_links_accepted_total", "Links accepted by link queues, by discovering extractor.", "extractor"),
		DocumentsByStatus: r.CounterVec("ltqp_documents_by_status_total", "Completed dereference responses by HTTP status code.", "status"),

		ResultsEmitted: r.Counter("ltqp_results_total", "Solutions streamed to clients."),

		SharedCacheHits:          r.Counter("ltqp_shared_cache_hits_total", "Dereferences served fresh from the shared document cache."),
		SharedCacheNegativeHits:  r.Counter("ltqp_shared_cache_negative_hits_total", "Dereferences of documents that do not exist (404/410) answered from the shared document cache."),
		SharedCacheMisses:        r.Counter("ltqp_shared_cache_misses_total", "Dereferences the shared document cache had no entry for."),
		SharedCacheRevalidations: r.Counter("ltqp_shared_cache_revalidations_total", "Conditional refetches issued for stale shared-cache entries."),
		SharedCacheNotModified:   r.Counter("ltqp_shared_cache_not_modified_total", "Revalidations answered 304 Not Modified (cached parse kept)."),
		SharedCacheEvictions:     r.Counter("ltqp_shared_cache_evictions_total", "Documents evicted from the shared cache under its byte budget."),
		SharedCacheBytes:         r.Gauge("ltqp_shared_cache_bytes", "Current byte occupancy of the shared document cache."),
		SharedCacheDocuments:     r.Gauge("ltqp_shared_cache_documents", "Documents currently held by the shared document cache."),
		SingleflightDedups:       r.Counter("ltqp_singleflight_dedup_total", "Concurrent dereferences that joined another caller's in-flight fetch of the same IRI."),
		QueriesAdmitted:          r.Counter("ltqp_queries_admitted_total", "Queries admitted by the admission controller."),
		QueriesRejected:          r.Counter("ltqp_queries_rejected_total", "Queries rejected with 429 by the admission controller."),
		AdmissionQueueDepth:      r.Gauge("ltqp_admission_queue_depth", "Queries currently waiting in the admission queue."),
		ResultCacheHits:          r.Counter("ltqp_result_cache_hits_total", "Queries answered from the result cache."),
		ResultCacheMisses:        r.Counter("ltqp_result_cache_misses_total", "Queries that missed the result cache."),

		DerefDuration:     r.Histogram("ltqp_deref_duration_seconds", "Wall time per successful dereference (cache hits included).", DefaultLatencyBuckets),
		TimeToFirstResult: r.Histogram("ltqp_time_to_first_result_seconds", "Delay from query start to first solution.", DefaultLatencyBuckets),
		QueryDuration:     r.Histogram("ltqp_query_duration_seconds", "Wall time per completed query.", DefaultLatencyBuckets),

		QueryMemPeak:      r.Histogram("ltqp_query_mem_bytes", "Peak ledger-accounted memory per finished query (bytes).", DefaultMemBuckets),
		TenantMemCharged:  r.CounterVec("ltqp_tenant_mem_charged_bytes_total", "Cumulative ledger-charged bytes across finished queries, by tenant.", "tenant"),
		MemBudgetExceeded: r.Counter("ltqp_mem_budget_exceeded_total", "Queries cancelled for crossing their per-query memory budget."),

		EventsDropped: r.CounterVec("ltqp_events_dropped_total", "Engine events discarded because a subscriber's buffer was full, by subscriber name.", "subscriber"),

		TracesKept:    r.CounterVec("ltqp_traces_kept_total", "Traces retained by the tail sampler, by keep reason.", "reason"),
		TracesDropped: r.Counter("ltqp_traces_dropped_total", "Traces discarded by the tail sampler."),

		LimitTrips:      r.CounterVec("ltqp_traversal_limit_trips_total", "Traversal defenses fired, by limit kind.", "kind"),
		LinksOutOfScope: r.Counter("ltqp_links_out_of_scope_total", "Links pruned by the traversal scope allowlist."),
	}
}

// countAttempt folds one document_dereferenced attempt into the deref
// instruments, with traceID as the exemplar of every latency that did not
// fail. A negative cache hit counts nowhere.
func (m *Metrics) countAttempt(ev Event, traceID string) {
	secs := float64(ev.DurationUS) / 1e6
	if ev.Cached {
		if ev.Err == "" {
			m.CacheHits.Inc()
			m.DerefDuration.ObserveExemplar(secs, traceID)
		}
		return
	}
	if ev.Attempt > 1 {
		m.Retries.Inc()
	}
	if ev.Status != 0 && m.DocumentsByStatus != nil {
		m.DocumentsByStatus.With(strconv.Itoa(ev.Status)).Inc()
	}
	if ev.Err != "" {
		m.FetchFailures.Inc()
		return
	}
	// A 304 confirmed a cached copy: no new document, only the round trip.
	if ev.Status != http.StatusNotModified {
		m.DocumentsFetched.Inc()
		m.BytesFetched.Add(ev.Bytes)
		m.TriplesParsed.Add(int64(ev.Triples))
	}
	m.DerefDuration.ObserveExemplar(secs, traceID)
}

// Observer bundles the observability surfaces one engine shares across its
// queries: the metrics registry with the standard ltqp_ instrument set, and
// the query tracker backing /debug/queries. A nil *Observer disables
// everything at zero cost.
type Observer struct {
	Registry *Registry
	Metrics  *Metrics
	Tracker  *QueryTracker
	// Events is the engine event bus: the ordered stream of everything the
	// engine does, consumed by the SSE feed, the slog adapter and the
	// JSONL journal. With no subscriber attached it costs the hot path one
	// atomic load and zero allocations.
	Events *Bus
	// Stream serves Events as /debug/events (Server-Sent Events). Call
	// Stream.Shutdown during graceful drain so open feeds close.
	Stream *EventStream
	// Health backs /healthz: ok vs degraded by recent deref failure ratio.
	Health *HealthChecker
	// Resources rolls finished queries' resource ledgers up per tenant,
	// serving the tenants section of /debug/resources and the peak_mem
	// column of load reports.
	Resources *resource.TenantLedger
	// TraceQueries makes the engine record a span tree for every query
	// (required for /debug/queries span output and Result.Trace).
	TraceQueries bool
	// Traces tail-samples completed queries' traces into a bounded ring
	// served at /debug/traces. Nil disables retention (the engine still
	// records spans when TraceQueries is set).
	Traces *TraceStore
}

// NewObserver builds a ready-to-wire observer: fresh registry, the
// standard metric set, a tracker remembering the 32 most recent queries,
// an event bus with its SSE stream, a health checker at the default
// degraded threshold, and per-query tracing enabled.
func NewObserver() *Observer {
	r := NewRegistry()
	m := NewMetrics(r)
	bus := NewBus()
	bus.CountDrops(m.EventsDropped)
	tracker := NewQueryTracker(32)
	// Live ledger-accounted bytes across in-flight queries, computed at
	// scrape time from the tracker (zero hot-path cost).
	r.GaugeFunc("ltqp_mem_inuse_bytes",
		"Ledger-accounted bytes currently live across in-flight queries.",
		func() float64 {
			var sum int64
			for _, rec := range tracker.InFlight() {
				sum += rec.Ledger().Current()
			}
			return float64(sum)
		})
	return &Observer{
		Registry:     r,
		Metrics:      m,
		Tracker:      tracker,
		Events:       bus,
		Stream:       NewEventStream(bus),
		Health:       &HealthChecker{Metrics: m},
		Resources:    resource.NewTenantLedger(),
		TraceQueries: true,
		Traces:       NewTraceStore(TraceStoreOptions{Metrics: m}),
	}
}

// Bus returns the observer's event bus; nil-safe.
func (o *Observer) Bus() *Bus {
	if o == nil {
		return nil
	}
	return o.Events
}

// M returns the observer's metric set; nil-safe.
func (o *Observer) M() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// TraceStore returns the observer's tail-sampling trace store; nil-safe.
func (o *Observer) TraceStore() *TraceStore {
	if o == nil {
		return nil
	}
	return o.Traces
}

// Res returns the observer's per-tenant resource rollup; nil-safe.
func (o *Observer) Res() *resource.TenantLedger {
	if o == nil {
		return nil
	}
	return o.Resources
}

// nilMetrics lets instrumented code chain through a nil *Metrics.
var nilMetrics = &Metrics{}

// On returns m, or a Metrics of nil instruments when m is nil — so call
// sites can write obs.On(m).DocumentsFetched.Inc() unconditionally.
func On(m *Metrics) *Metrics {
	if m == nil {
		return nilMetrics
	}
	return m
}
