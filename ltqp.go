// Package ltqp is a link-traversal SPARQL query engine for the Solid
// decentralized environment — a Go reproduction of the system demonstrated
// in "Demonstration of Link Traversal SPARQL Query Processing over the
// Decentralized Solid Environment" (Taelman & Verborgh, EDBT 2024).
//
// The engine answers SPARQL 1.1 queries over Decentralized Knowledge
// Graphs stored in Solid personal data pods without any prior index:
// starting from seed URLs (user-provided, or derived from IRIs mentioned in
// the query), it dereferences documents over HTTP, follows links guided by
// the structural properties of Solid pods (LDP containers, WebID profiles,
// Type Indexes) and by query-driven reachability (cMatch), and evaluates
// the query with a pipelined iterator network over the continuously growing
// internal triple source — so first results typically appear well before
// traversal finishes.
//
// # Quickstart
//
//	engine := ltqp.New(ltqp.Config{Lenient: true})
//	res, err := engine.Query(ctx, `
//	    PREFIX snvoc: <https://.../vocabulary/>
//	    SELECT ?forumId ?forumTitle WHERE {
//	      ?message snvoc:hasCreator <https://pods.example/alice/profile/card#me>.
//	      ?forum snvoc:containerOf ?message;
//	        snvoc:id ?forumId;
//	        snvoc:title ?forumTitle.
//	    }`)
//	for binding := range res.Results {
//	    fmt.Println(binding)
//	}
//
// A full simulated Solid environment (pods generated by a SolidBench-
// equivalent generator and served over HTTP) ships in the repository; see
// the examples/ directory and the cmd/ tools.
package ltqp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/deref"
	"ltqp/internal/exec"
	"ltqp/internal/extract"
	"ltqp/internal/linkqueue"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/serve"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// Term is an RDF term in a query solution.
type Term = rdf.Term

// Binding is one query solution: a mapping from variable names to terms.
type Binding = rdf.Binding

// Triple is one RDF statement (CONSTRUCT/DESCRIBE results).
type Triple = rdf.Triple

// CommonPrefixes returns the prefix table used by the Solid ecosystem and
// the SolidBench vocabulary, for serializing CONSTRUCT results.
func CommonPrefixes() map[string]string {
	out := make(map[string]string, len(rdf.CommonPrefixes))
	for k, v := range rdf.CommonPrefixes {
		out[k] = v
	}
	return out
}

// Credentials authenticate the engine as a Solid agent (WebID + token),
// letting it traverse documents behind access control on the user's behalf.
type Credentials = deref.Credentials

// RetryPolicy configures resilient dereferencing: bounded retries with
// capped exponential backoff and deterministic jitter, per-attempt
// timeouts, and Retry-After honoring on 429/503. See deref.RetryPolicy.
type RetryPolicy = deref.RetryPolicy

// Degradation reports what a lenient execution ran without: documents
// abandoned after exhausting retries, and the retry count.
type Degradation = metrics.Degradation

// LimitTrip describes one traversal-defense firing: the limit kind, the
// origin or document that tripped it, and the configured vs observed value.
type LimitTrip = metrics.LimitTrip

// BudgetExceededError is the typed failure of a query cancelled for
// crossing Config.MemBudget. It carries the budget, the attempted total,
// and the full per-layer ledger breakdown at the moment of the crossing;
// match it with errors.As on Result.Err.
type BudgetExceededError = resource.BudgetExceededError

// ResourceSnapshot is a point-in-time view of one query's resource ledger:
// live, peak and cumulative bytes per engine layer (deref, store, exec,
// serve), the dominant layer, and budget state.
type ResourceSnapshot = resource.Snapshot

// Observer bundles the process-level observability surfaces of an engine:
// a metrics registry (Prometheus text exposition), the standard ltqp_
// instrument set, and the query tracker behind /debug/queries. Build one
// with NewObserver, set it on Config.Obs, and mount its endpoints with
// Observer.Register. See internal/obs.
type Observer = obs.Observer

// Trace is one query's span tree: parse → plan → per-document dereference
// attempts → link extraction → join/iterator stages. Export it with
// Trace.JSON or render it with Trace.Tree.
type Trace = obs.Trace

// EventBus is the engine's ordered event stream: query lifecycle, pipeline
// stages, dereferences, link discovery/pruning, retries, result arrival.
// Subscribe for live consumption (the SSE feed does), attach a JSONL
// journal with NewJournal, or log it with LogEvents. Publishing with no
// subscriber costs the hot path one atomic load and zero allocations.
type EventBus = obs.Bus

// Event is one engine occurrence on the EventBus.
type Event = obs.Event

// NewEventBus returns an empty engine event bus.
func NewEventBus() *EventBus { return obs.NewBus() }

// NewJournal attaches a JSONL journal writer to a bus: every event becomes
// one JSON line between a versioned header and a footer. Close it to flush.
// Analyze the file offline with `benchreport --replay-journal`.
func NewJournal(w io.Writer, bus *EventBus) (*obs.Journal, error) {
	return obs.NewJournal(w, bus)
}

// NewObserver builds a ready-to-wire Observer: fresh registry, the
// standard metric set, a tracker of recent queries, an event bus with its
// /debug/events SSE stream, a health checker, and per-query tracing.
func NewObserver() *Observer { return obs.NewObserver() }

// SharedDocumentCache is a process-wide document cache shared across every
// engine (and every concurrent query) that references it: dereferenced
// documents are kept under a byte budget with their HTTP validators, stale
// entries revalidate with conditional GETs (a 304 keeps the cached parse),
// concurrent fetches of one IRI collapse into a single flight, and
// Invalidate bumps an epoch that forces revalidation everywhere at once.
// Build one with NewSharedCache and set it on Config.SharedCache.
type SharedDocumentCache = serve.SharedCache

// SharedCacheOptions configures NewSharedCache.
type SharedCacheOptions = serve.SharedCacheOptions

// SharedCacheStats is a snapshot of a SharedDocumentCache's counters.
type SharedCacheStats = serve.CacheStats

// NewSharedCache builds a shared document cache. Zero options select a
// 64 MiB budget and a one-minute freshness TTL.
func NewSharedCache(o SharedCacheOptions) *SharedDocumentCache {
	return serve.NewSharedCache(o)
}

// Strategy selects the link extraction configuration.
type Strategy int

const (
	// StrategySolid is the paper's default: Solid-aware extractors (WebID
	// profile, Type Index filtered by query classes, LDP containers) plus
	// the query-driven cMatch criterion.
	StrategySolid Strategy = iota
	// StrategySolidNoLDP uses only WebID profile + Type Index + cMatch:
	// structure-guided traversal without blind container walks.
	StrategySolidNoLDP
	// StrategyLDPOnly walks container hierarchies only (no type index).
	StrategyLDPOnly
	// StrategyCMatch uses only the query-driven cMatch criterion.
	StrategyCMatch
	// StrategyCAll follows every IRI (exhaustive baseline; only safe
	// against closed simulated environments).
	StrategyCAll
)

// extractors builds the extractor set of a strategy.
func (s Strategy) extractors(shape *extract.QueryShape) []extract.Extractor {
	switch s {
	case StrategySolidNoLDP:
		return []extract.Extractor{
			extract.SolidProfile{},
			&extract.TypeIndexScoped{Shape: shape},
			extract.CMatch{Shape: shape},
		}
	case StrategyLDPOnly:
		return []extract.Extractor{extract.SolidProfile{}, extract.LDPContainer{}}
	case StrategyCMatch:
		return []extract.Extractor{extract.CMatch{Shape: shape}}
	case StrategyCAll:
		return []extract.Extractor{extract.CAll{}}
	default:
		return extract.DefaultSolidSet(shape)
	}
}

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategySolidNoLDP:
		return "solid-no-ldp"
	case StrategyLDPOnly:
		return "ldp-only"
	case StrategyCMatch:
		return "cmatch"
	case StrategyCAll:
		return "call"
	default:
		return "solid"
	}
}

// ParseQueuePolicy validates a queue-policy name ("", "fifo" or "guided");
// CLIs use it to reject a bad --queue-policy flag up front ("" is accepted
// as FIFO).
func ParseQueuePolicy(s string) (string, error) {
	p, err := linkqueue.ParsePolicy(s)
	return string(p), err
}

// Config configures an Engine.
type Config struct {
	// Client is the HTTP client used for dereferencing documents; nil
	// means a client of the engine's own that keeps MaxConcurrent idle
	// connections per pod origin (http.DefaultClient keeps two).
	Client *http.Client
	// Auth makes the engine query on behalf of a Solid agent.
	Auth *Credentials
	// Strategy selects the link extraction configuration (default:
	// StrategySolid, the paper's setup).
	Strategy Strategy
	// QueuePolicy selects the link-queue discipline: "fifo" (default,
	// breadth-first — the oracle ordering) or "guided" (score links by
	// query relevance and source productivity, popped round-robin across
	// origins). Any other name falls back to FIFO. Ordering never changes
	// the result multiset, only when results arrive and how many documents
	// are fetched before the last one.
	QueuePolicy string
	// Limits configures the traversal defenses: per-origin document/byte/
	// in-flight budgets, the traversal scope allowlist, per-document
	// fanout and total queue caps, the per-document body size cap and the
	// slow-transfer timeout. The zero value disables every defense. With
	// Lenient set, a tripped limit degrades the traversal (reported in
	// Result.Degradation().LimitTrips); otherwise the query fails with a
	// *TraversalLimitError.
	Limits TraversalLimits
	// MaxConcurrent bounds parallel dereferences; 0 means 6 (a browser's
	// per-host budget, matching the demo environment).
	MaxConcurrent int
	// MaxDocuments caps traversal; 0 means unbounded.
	MaxDocuments int
	// MaxDepth caps traversal depth in hops from the seeds; 0 means
	// unbounded.
	MaxDepth int
	// Lenient tolerates failing or unparseable documents (the --lenient
	// flag of the paper's CLI). Strongly recommended on the open Web.
	// Result.Degradation reports what a lenient query ran without.
	Lenient bool
	// Retry retries transient dereference failures (transport errors,
	// 429/5xx, stalled responses) with capped exponential backoff before
	// giving up on a document. Nil means a single attempt. Strongly
	// recommended on the open Web alongside Lenient:
	// &ltqp.RetryPolicy{} selects sensible defaults.
	Retry *RetryPolicy
	// SharedCache, when non-nil, layers a process-wide shared document
	// cache (with revalidation and singleflight dedup) under every
	// dereference of this engine: repeated queries against the same pods
	// skip re-fetching (Fig. 4's "(disk cache)" behaviour). Several
	// engines may share one.
	SharedCache *SharedDocumentCache
	// Obs attaches process-level observability: metrics aggregated
	// across all queries of this engine (with Prometheus exposition) and
	// the query tracker behind /debug/queries. Nil disables it.
	Obs *Observer
	// Events attaches an engine event bus independent of any Observer
	// (Config.Obs's bus is used when this is nil). Subscribers receive
	// the ordered stream of everything the engine does; with none
	// attached the instrumentation adds zero allocations.
	Events *EventBus
	// Trace records a span tree per query, returned by Result.Trace,
	// even without an Observer attached.
	Trace bool
	// Explain enables result provenance and traversal-topology recording:
	// every solution carries the exact set of documents whose triples
	// produced it (read it with Sources), traversal records its
	// link-discovery graph, and Result.Explain exports the combined
	// report (JSON via Explain.JSON, Graphviz via Result.TopologyDOT).
	// When an Observer is attached, topologies also appear on
	// /debug/topology. Off by default; disabling it costs nothing on the
	// query hot path.
	Explain bool
	// ExecWorkers sizes the executor's morsel worker pool: vectorized
	// join probes and grouping split their input into fixed-size morsels
	// that this many workers process in parallel. 0 means GOMAXPROCS.
	// Result multisets are identical for every worker count.
	ExecWorkers int
	// Seeds are default seed URLs used when a query does not mention any
	// IRIs and no per-query seeds are given.
	Seeds []string
	// MemBudget caps one query's ledger-accounted memory in bytes (0 =
	// unlimited). A query that crosses the budget is cancelled with a
	// *BudgetExceededError carrying the per-layer breakdown; concurrent
	// queries on the same engine are unaffected. A positive budget enables
	// resource accounting even without an Observer; Result.Resources reads
	// the ledger either way.
	MemBudget int64
}

// Engine executes SPARQL queries over Solid pods using link traversal.
type Engine struct {
	cfg    Config
	policy linkqueue.Policy
	shared deref.SharedCache // cfg.SharedCache; a nil interface when unset
	// dict is the engine-scoped term dictionary: parsers, the document
	// cache, and every per-query store intern into it, so term IDs are
	// stable across queries and repeated documents cost no new string
	// allocations.
	dict *rdf.Dict
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = defaultMaxConcurrent
	}
	if cfg.Client == nil {
		cfg.Client = defaultClient(cfg.MaxConcurrent)
	}
	if cfg.Events == nil {
		cfg.Events = cfg.Obs.Bus()
	}
	e := &Engine{cfg: cfg, dict: rdf.NewDict()}
	// An unknown policy name falls back to FIFO rather than erroring — New
	// has no error return; CLIs validate the flag with ParseQueuePolicy.
	if e.policy, _ = linkqueue.ParsePolicy(cfg.QueuePolicy); e.policy == "" {
		e.policy = linkqueue.PolicyFIFO
	}
	if cfg.SharedCache != nil {
		e.shared = cfg.SharedCache
	}
	return e
}

// Observer returns the engine's attached observability bundle (nil when
// Config.Obs was not set).
func (e *Engine) Observer() *Observer { return e.cfg.Obs }

// SharedCacheStats snapshots the process-wide shared document cache's
// counters; enabled is false when Config.SharedCache was not set.
func (e *Engine) SharedCacheStats() (stats SharedCacheStats, enabled bool) {
	if e.cfg.SharedCache == nil {
		return SharedCacheStats{}, false
	}
	return e.cfg.SharedCache.Stats(), true
}

// Result is a running query execution. Solutions stream on Results while
// link traversal proceeds concurrently; the channel closes when execution
// completes. Close aborts early (e.g. after enough results).
type Result struct {
	// Vars are the projected variable names in projection order.
	Vars []string
	// Results streams solutions as they are produced.
	Results <-chan Binding
	// Seeds are the seed URLs traversal started from.
	Seeds []string

	query    *sparql.Query
	plan     algebra.Operator  // the optimized logical plan
	recorder *metrics.Recorder // the HTTP waterfall and result timings
	cancel   context.CancelFunc
	// satisfied is set when the pipeline finished while traversal was still
	// running and cancelled it as no longer needed.
	satisfied   atomic.Bool
	id          int64
	mu          sync.Mutex
	err         error
	store       *store.Store
	trace       *obs.Trace
	prov        *exec.Prov
	topo        *obs.Topology
	ledger      *resource.Ledger
	queryStr    string
	start       time.Time
	queuePolicy linkqueue.Policy
}

// ID returns the query's correlation id — the same id stamped on its
// events, journal lines, log records, and /debug/queries entry, so one
// execution can be followed across every observability surface (e.g.
// /debug/events?id=N).
func (r *Result) ID() int64 { return r.id }

// Err reports a traversal failure; valid after Results closes. Always nil
// for lenient engines.
func (r *Result) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Result) setErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// Close aborts the execution.
func (r *Result) Close() { r.cancel() }

// Metrics returns the execution's HTTP and result-timing recorder.
func (r *Result) Metrics() *metrics.Recorder { return r.recorder }

// Stats summarizes the traversal after (or during) execution.
func (r *Result) Stats() metrics.Stats { return r.recorder.Stats() }

// Degradation reports which documents the traversal abandoned after
// exhausting retries and how many retries it absorbed — how partial a
// lenient query's results may be.
func (r *Result) Degradation() Degradation { return r.recorder.Degradation() }

// Trace returns the query's span tree (nil unless Config.Trace or an
// Observer with TraceQueries is attached). Complete once Results closes.
func (r *Result) Trace() *Trace { return r.trace }

// TraceID returns the query's W3C trace ID in hex — the id propagated to
// every dereference via the traceparent header, stamped on metric
// exemplars, and keyed by /debug/traces. Empty when tracing is off.
func (r *Result) TraceID() string { return r.trace.ID() }

// CriticalPath is the query's latency attribution: the dependent
// dereference chains that gated time-to-first-result and total traversal
// time, each hop split into server and network cost. See Explain.
type CriticalPath = obs.CritPath

// criticalPath attributes the execution's latency to its gating
// dereference chains; nil before any request was recorded. When the query
// ran with Explain, the first result's provenance pins the gating document
// exactly; otherwise the latest-finishing successful fetch before the
// first result stands in.
func (r *Result) criticalPath() *CriticalPath {
	reqs := r.recorder.Requests()
	if len(reqs) == 0 {
		return nil
	}
	var firstSources []string
	if r.topo != nil {
		firstSources = r.topo.FirstResultSources()
	}
	return obs.ComputeCritPath(reqs, r.recorder.Epoch(), r.recorder.ResultTimes(), firstSources)
}

// PlanString renders the optimized logical plan (EXPLAIN-style).
func (r *Result) PlanString() string { return strings.TrimSpace(algebra.String(r.plan)) }

// Resources returns the query's resource-ledger snapshot — live and peak
// bytes per engine layer, the dominant layer, and budget state — or nil
// when the engine ran without accounting (no Observer and no MemBudget).
// Final once Results closes.
func (r *Result) Resources() *ResourceSnapshot { return r.ledger.Snapshot() }

// TopologyDOT renders the traversal topology as a Graphviz digraph (empty
// skeleton unless Config.Explain was set).
func (r *Result) TopologyDOT() string { return r.topo.DOT() }

// Sources returns the sorted document IRIs whose triples produced the
// solution — the per-result provenance recorded under Config.Explain (nil
// otherwise). The provenance annotations are invisible to Vars, BindingJSON
// and map iteration over the solution's variables.
func Sources(b Binding) []string {
	if !b.HasSources() {
		return nil
	}
	return b.Sources()
}

// BindingJSON renders a solution as the paper's CLI does (Fig. 2): a JSON
// object mapping variables to term strings.
func BindingJSON(b Binding) string {
	out, err := json.Marshal(bindingObject(b))
	if err != nil {
		return "{}"
	}
	return string(out)
}

// BindingJSONWithSources renders a solution like BindingJSON plus a
// "_sources" key listing the documents whose triples produced it (omitted
// when the query ran without Config.Explain).
func BindingJSONWithSources(b Binding) string {
	obj := map[string]interface{}{}
	for k, v := range bindingObject(b) {
		obj[k] = v
	}
	if srcs := Sources(b); srcs != nil {
		obj["_sources"] = srcs
	}
	out, err := json.Marshal(obj)
	if err != nil {
		return "{}"
	}
	return string(out)
}

func bindingObject(b Binding) map[string]string {
	obj := map[string]string{}
	for _, v := range b.Vars() {
		t := b[v]
		switch t.Kind {
		case rdf.TermLiteral:
			s := "\"" + t.Value + "\""
			if t.Language != "" {
				s += "@" + t.Language
			} else if t.Datatype != "" {
				s += "^^" + t.Datatype
			}
			obj[v] = s
		default:
			obj[v] = t.Value
		}
	}
	return obj
}

// SortBindings orders solutions canonically (for stable test/demo output).
func SortBindings(bs []Binding, vars []string) {
	sort.SliceStable(bs, func(i, j int) bool {
		return bs[i].Key(vars) < bs[j].Key(vars)
	})
}

// WaitWithTimeout collects results until the stream ends or the timeout
// elapses, returning what arrived.
func WaitWithTimeout(res *Result, d time.Duration) []Binding {
	timer := time.NewTimer(d)
	defer timer.Stop()
	var all []Binding
	for {
		select {
		case b, ok := <-res.Results:
			if !ok {
				return all
			}
			all = append(all, b)
		case <-timer.C:
			res.Close()
			return all
		}
	}
}
