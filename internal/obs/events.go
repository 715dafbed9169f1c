package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/metrics"
)

// EventSchemaVersion identifies the engine event wire layout (the JSON shape
// of Event, the event-kind vocabulary, and the journal envelope records).
// Bump it when any of those change incompatibly, so journal readers and SSE
// consumers can reject streams they do not understand. The vocabulary is
// pinned by a golden-file test (testdata/event_vocab.golden): renaming an
// event kind or a field is a deliberate, reviewed act.
const EventSchemaVersion = 1

// EventKind names one kind of engine occurrence.
type EventKind string

// The event vocabulary, in the rough order a query produces them. One query
// emits exactly one query_started and one query_finished; everything between
// carries the same Query correlation id.
const (
	// EventQueryStarted opens a query: Detail is the compacted query text,
	// Seeds the traversal seed URLs.
	EventQueryStarted EventKind = "query_started"
	// EventStageStarted marks a pipeline stage beginning: the core phases
	// (parse, plan, traverse, exec) and, while a subscriber is attached,
	// the per-operator iterator stages (scan, join, ...) with Detail
	// describing the operator.
	EventStageStarted EventKind = "stage_started"
	// EventStageFinished closes a stage with its wall time; iterator
	// stages also carry the number of rows they produced.
	EventStageFinished EventKind = "stage_finished"
	// EventMorselProcessed records one batch forwarded by a vectorized
	// operator stage: Stage names the operator, Rows the batch's live row
	// count, Row the batch ordinal within the stage. Only emitted while a
	// subscriber is attached. (Additive to schema 1; the name outlived the
	// executor's morsel pool and is kept for the journal schema.)
	EventMorselProcessed EventKind = "morsel_processed"
	// EventDocumentDereferenced records one dereference attempt, a retry or
	// a shared-cache answer included; Via is the document whose link led
	// here, DurationUS ends at Time, Err marks a failure. It is the only
	// record of a dereference: the Recorder's rows (RequestOf), the deref
	// instruments and the topology nodes are its folds, live and on replay.
	// (Per attempt, with Reason, Attempt, Cached and ServerUS: additive to
	// schema 1.)
	EventDocumentDereferenced EventKind = "document_dereferenced"
	// EventLinkDiscovered records a link an extractor found in a document
	// (URL discovered in Via by Extractor).
	EventLinkDiscovered EventKind = "link_discovered"
	// EventLinkQueued records a discovered link accepted by the link queue.
	EventLinkQueued EventKind = "link_queued"
	// EventLinkPruned records a link not followed; Detail names its fate
	// (the Fate*/Edge* constants of topology.go: duplicate, self,
	// depth-pruned, scope-pruned, fanout-pruned, queue-cap-pruned at
	// discovery; at pop time origin-budget-pruned when its origin's budget
	// refuses it, doc-cap-pruned when the traversal has fetched its
	// MaxDocuments) and Reason its discovery label. (Reason, Depth and the
	// pop-time events are additive to schema 1.)
	EventLinkPruned EventKind = "link_pruned"
	// EventRetryScheduled records a transient dereference failure about to
	// be retried after DelayUS.
	EventRetryScheduled EventKind = "retry_scheduled"
	// EventResultEmitted records one solution delivered to the client; Row
	// is the 1-based result number, Sources the documents whose triples
	// produced it when the query ran with provenance. (Sources is additive
	// to schema 1.)
	EventResultEmitted EventKind = "result_emitted"
	// EventQueryFinished closes a query with its total result count, wall
	// time, and error if any.
	EventQueryFinished EventKind = "query_finished"
	// EventCacheHit records a dereference served fresh from the shared
	// document cache without a network request; a Status (404/410) marks a
	// negative hit, the cached absence of the document. (Additive to
	// schema 1.)
	EventCacheHit EventKind = "cache_hit"
	// EventCacheRevalidated records a stale shared-cache entry refreshed by
	// a conditional request; Status 304 means the cached parse was kept,
	// 200 that the document changed and was re-parsed. (Additive.)
	EventCacheRevalidated EventKind = "cache_revalidated"
	// EventCacheEvicted records a document evicted from the shared cache
	// under its byte budget. (Additive.)
	EventCacheEvicted EventKind = "cache_evicted"
	// EventQueryAdmitted records a query passing admission control; Tenant
	// names the quota bucket it was charged to. (Additive.)
	EventQueryAdmitted EventKind = "query_admitted"
	// EventQueryRejected records a query turned away by admission control
	// (429 + Retry-After); Detail names why — queue full, tenant quota,
	// draining. (Additive.)
	EventQueryRejected EventKind = "query_rejected"
	// EventLimitTripped records a traversal defense firing: a per-origin
	// document/byte budget, the traversal scope allowlist, a per-document
	// fanout cap, the total queued-links cap, or an oversized or slow body.
	// URL names the link that tripped it, Origin the origin whose budget it
	// was, Reason the limit kind, Limit and Observed the bound and the value
	// that crossed it, and Detail the accounting as text. (Origin, Limit and
	// Observed are additive to schema 1.)
	EventLimitTripped EventKind = "limit_tripped"
	// EventResourceSnapshot records a query's resource-ledger state:
	// MemBytes the live bytes at snapshot time, MemPeak the high-water
	// mark, Detail the per-layer breakdown (largest spender first). Emitted
	// when a memory budget is crossed, with the budget-exceeded message in
	// Err, and at query finish, with the query's Tenant and the bytes it
	// charged in total in Bytes. (Additive to schema 1.)
	EventResourceSnapshot EventKind = "resource_snapshot"
)

// EventKinds lists the full vocabulary in emission order.
var EventKinds = []EventKind{
	EventQueryStarted, EventStageStarted, EventStageFinished,
	EventMorselProcessed,
	EventDocumentDereferenced, EventLinkDiscovered, EventLinkQueued,
	EventLinkPruned, EventRetryScheduled, EventResultEmitted,
	EventQueryFinished,
	EventCacheHit, EventCacheRevalidated, EventCacheEvicted,
	EventQueryAdmitted, EventQueryRejected,
	EventLimitTripped,
	EventResourceSnapshot,
}

// Event is one engine occurrence. Seq is a process-wide total order (replay
// tooling sorts on it); Query correlates every event of one execution.
// Unused fields are zero and omitted from JSON.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  EventKind `json:"kind"`
	Query int64     `json:"query,omitempty"`

	Stage      string   `json:"stage,omitempty"`
	URL        string   `json:"url,omitempty"`
	Via        string   `json:"via,omitempty"`
	Extractor  string   `json:"extractor,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Seeds      []string `json:"seeds,omitempty"`
	Status     int      `json:"status,omitempty"`
	Depth      int      `json:"depth,omitempty"`
	Attempt    int      `json:"attempt,omitempty"`
	Triples    int      `json:"triples,omitempty"`
	Bytes      int64    `json:"bytes,omitempty"`
	Row        int      `json:"row,omitempty"`
	Rows       int      `json:"rows,omitempty"`
	DurationUS int64    `json:"duration_us,omitempty"`
	DelayUS    int64    `json:"delay_us,omitempty"`
	Detail     string   `json:"detail,omitempty"`
	Tenant     string   `json:"tenant,omitempty"`
	Err        string   `json:"error,omitempty"`
	// MemBytes / MemPeak carry a resource_snapshot's live and high-water
	// byte counts. (Additive to schema 1.)
	MemBytes int64 `json:"mem_bytes,omitempty"`
	MemPeak  int64 `json:"mem_peak,omitempty"`
	// Score carries a link_queued link's queue-policy score when the
	// traversal runs a ranking discipline. (Additive to schema 1.)
	Score float64 `json:"score,omitempty"`
	// Sources carries a result_emitted solution's source documents when the
	// query ran with provenance. (Additive to schema 1.)
	Sources []string `json:"sources,omitempty"`
	// Cached marks a document_dereferenced attempt answered by the shared
	// document cache; ServerUS is a fetch's server-reported share
	// (Server-Timing). (Both additive to schema 1.)
	Cached   bool  `json:"cached,omitempty"`
	ServerUS int64 `json:"server_us,omitempty"`
	// Origin, Limit and Observed carry a limit_tripped defense's origin,
	// bound and crossing value. (Additive to schema 1.)
	Origin   string `json:"origin,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Observed int64  `json:"observed,omitempty"`
}

// Bus fans engine events out to subscribers. Publishing is bounded and
// non-blocking: each subscriber owns a buffered channel, and an event that
// does not fit is dropped for that subscriber (counted, never stalls the
// engine). With no subscriber attached, Publish is a nil check plus one
// atomic load and performs zero allocations — the query hot path pays
// nothing for carrying a bus (benchmarked in bench_test.go).
//
// All methods are safe on a nil *Bus, which is how engines built without
// Config.Events skip event construction entirely.
type Bus struct {
	seq   atomic.Uint64
	nsubs atomic.Int32

	mu   sync.Mutex // guards subs, drops and orders delivery
	subs []*Subscription
	// drops, when set via CountDrops, mirrors every named subscriber's
	// drop count into ltqp_events_dropped_total{subscriber=...} so journal
	// and SSE lossiness is visible on /metrics instead of silent.
	drops *CounterVec
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Active reports whether at least one subscriber is attached. Instrumented
// code uses it to skip building expensive event payloads.
func (b *Bus) Active() bool { return b != nil && b.nsubs.Load() > 0 }

// Publish stamps the event with a sequence number and time and delivers it
// to every matching subscriber without blocking. No-op without subscribers.
func (b *Bus) Publish(ev Event) {
	if !b.Active() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	ev.Seq = b.seq.Add(1)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	for _, s := range b.subs {
		if s.query != 0 && s.query != ev.Query {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			s.dropCtr.Inc() // nil-safe; set for named subscribers
		}
	}
}

// CountDrops mirrors per-subscriber drop counts into vec (one child per
// subscriber name). Already-attached named subscribers are wired
// retroactively; anonymous subscriptions are not counted.
func (b *Bus) CountDrops(vec *CounterVec) {
	if b == nil || vec == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drops = vec
	for _, s := range b.subs {
		if s.name != "" && s.dropCtr == nil {
			s.dropCtr = vec.With(s.name)
		}
	}
}

// DropCount sums the events dropped so far across the currently-attached
// subscribers with the given name.
func (b *Bus) DropCount(name string) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, s := range b.subs {
		if s.name == name {
			n += s.dropped.Load()
		}
	}
	return n
}

// Subscribe attaches a subscriber receiving every event, with the given
// channel buffer (minimum 1; 0 selects a 256-event default). Close the
// subscription when done.
func (b *Bus) Subscribe(buffer int) *Subscription {
	return b.subscribe("", 0, buffer)
}

// SubscribeQuery attaches a subscriber receiving only events of the given
// query correlation id (0 subscribes to all queries).
func (b *Bus) SubscribeQuery(queryID int64, buffer int) *Subscription {
	return b.subscribe("", queryID, buffer)
}

// SubscribeNamed attaches a named subscriber ("journal", "sse", "slog",
// ...). Drops for named subscribers roll up per name into the counter vec
// installed by CountDrops, in addition to the per-subscription tally.
func (b *Bus) SubscribeNamed(name string, queryID int64, buffer int) *Subscription {
	return b.subscribe(name, queryID, buffer)
}

func (b *Bus) subscribe(name string, queryID int64, buffer int) *Subscription {
	if b == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscription{bus: b, name: name, query: queryID, ch: make(chan Event, buffer)}
	s.C = s.ch
	b.mu.Lock()
	if name != "" && b.drops != nil {
		s.dropCtr = b.drops.With(name)
	}
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	b.nsubs.Add(1)
	return s
}

// Subscription is one attached event consumer. Read events from C; the
// channel is never closed by the bus — consumers select on C alongside
// their own cancellation signal, and call Close to detach.
type Subscription struct {
	// C delivers this subscriber's events in publish order.
	C <-chan Event

	bus     *Bus
	name    string
	query   int64
	ch      chan Event
	dropped atomic.Uint64
	dropCtr *Counter // named-subscriber rollup child, nil when uncounted
	closed  atomic.Bool
}

// Name returns the subscriber name given at SubscribeNamed ("" otherwise).
func (s *Subscription) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Dropped reports how many events were discarded because this subscriber's
// buffer was full.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close detaches the subscription from the bus. Events already buffered on
// C remain readable (use Drain to collect them); no further events arrive.
// Safe to call multiple times and on nil.
func (s *Subscription) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	b := s.bus
	b.mu.Lock()
	for i, x := range b.subs {
		if x == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	b.nsubs.Add(-1)
}

// Drain returns the events still buffered on the subscription without
// blocking. Call after Close to collect the tail.
func (s *Subscription) Drain() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for {
		select {
		case ev := <-s.ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// nextQueryID hands out process-wide query correlation ids.
var nextQueryID atomic.Int64

// NextQueryID returns a fresh query correlation id. The engine stamps one
// per execution; the query tracker, event stream, logs and journal all share
// it, so one query can be followed across every surface.
func NextQueryID() int64 { return nextQueryID.Add(1) }

// queryIDKey carries the current query id through a context.
type queryIDKeyType struct{}

var queryIDKey queryIDKeyType

// ContextWithQueryID returns a context carrying the query correlation id.
func ContextWithQueryID(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, queryIDKey, id)
}

// QueryIDFromContext returns the context's query correlation id (0 when the
// context carries none).
func QueryIDFromContext(ctx context.Context) int64 {
	id, _ := ctx.Value(queryIDKey).(int64)
	return id
}

// tenantKey carries the requesting tenant through a context.
type tenantKeyType struct{}

var tenantKey tenantKeyType

// ContextWithTenant returns a context carrying the tenant identity a query
// is charged to (API key or client address); the query tracker stamps it on
// the execution's /debug/queries record.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey, tenant)
}

// TenantFromContext returns the context's tenant identity ("" when none).
func TenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey).(string)
	return t
}

// Emitter binds a Bus to one query's correlation id, so instrumented code
// deep in the engine (dereferencer, traversal loop, iterator stages)
// publishes correlated events without threading the id itself. A nil
// *Emitter no-ops every method at zero cost, mirroring the nil-span and
// nil-metrics idiom.
//
// Every occurrence of a query is one Emit, and the emitter folds the event
// synchronously, before publishing it — never through a droppable
// subscriber channel. Kinds the fold records go in under one lock, in the
// order the bus numbers them, so a journal replays to the same state; kinds
// it only counts skip the lock unless the query keeps a topology.
type Emitter struct {
	bus *Bus
	mu  sync.Mutex // orders fold + publish
	f   queryFold
}

// NewEmitter returns the emitter of one query: events go to bus and are
// folded into topo, rec, o's instruments, tracker, tenant rollup and trace
// store, the tracker record track and the tail sampler's offer of trace (nil
// means none). With no bus, topology or recorder it returns nil, the free
// disabled state.
func NewEmitter(bus *Bus, id int64, topo *Topology, rec *metrics.Recorder, o *Observer, track *QueryRecord, trace *Trace) *Emitter {
	if bus == nil && topo == nil && rec == nil {
		return nil
	}
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	return &Emitter{bus: bus, f: newFold(id, rec, topo, o, track, trace)}
}

// Active reports whether emitted events currently have an audience: a bus
// subscriber or the query's topology.
func (e *Emitter) Active() bool { return e != nil && (e.f.Topology != nil || e.bus.Active()) }

// Emit stamps the event with the emitter's query id, folds it and
// publishes it.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	ev.Query = e.f.ID
	if e.f.Topology == nil && e.f.count(&ev) {
		e.bus.Publish(ev)
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	e.f.apply(ev)
	e.bus.Publish(ev)
}

// RequestOf is the waterfall row of one document_dereferenced attempt, the
// one conversion behind the live Recorder and journal replay's rows.
func RequestOf(ev Event) metrics.Request {
	// Wall clock only, as a replayed event has it.
	end := ev.Time.Round(0)
	return metrics.Request{URL: ev.URL, Parent: ev.Via, Reason: ev.Reason,
		Start: end.Add(-time.Duration(ev.DurationUS) * time.Microsecond), End: end,
		Status: ev.Status, Bytes: ev.Bytes, Triples: ev.Triples, Cached: ev.Cached,
		Attempt: ev.Attempt, Server: time.Duration(ev.ServerUS) * time.Microsecond, Err: ev.Err}
}
