// Package core implements the paper's primary contribution: a link
// traversal SPARQL query engine for the Solid decentralized environment.
//
// The engine wires together the components of the paper's Fig. 1: a link
// queue initialized with seed URLs, a pool of dereferencers that fetch and
// parse documents, link extractors that append newly discovered links to
// the queue, and a continuously growing internal triple source over which a
// pipelined iterator network evaluates the query — producing results while
// traversal is still in flight. Query planning uses the zero-knowledge
// technique (no prior statistics), and seed URLs may be user-provided or
// derived from IRIs mentioned in the query ("query-based seed selection").
package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// DefaultMaxConcurrent mirrors a browser's per-host connection budget, the
// environment the paper demonstrates in.
const DefaultMaxConcurrent = 6

// Options configures an Engine.
type Options struct {
	// Client is the HTTP client used for dereferencing; nil means a client
	// of the engine's own, http.DefaultTransport's settings with one idle
	// connection kept per worker. Tests and the simulated environment
	// inject the pod server's client here.
	Client *http.Client
	// Auth, when non-nil, makes the engine query on behalf of an agent:
	// its credentials accompany every dereference, unlocking documents
	// behind access control.
	Auth *deref.Credentials
	// Extractors builds the link extraction strategy for a query shape.
	// Nil means extract.DefaultSolidSet (the paper's configuration).
	Extractors func(shape *extract.QueryShape) []extract.Extractor
	// QueuePolicy selects the link-queue discipline: FIFO (the default and
	// the differential-testing oracle), reason-ranked, or guided (query-
	// relevance scoring with per-origin round-robin fairness). Ordering
	// never changes the answer set — only how soon answers arrive and how
	// many documents are dereferenced on the way.
	QueuePolicy linkqueue.Policy
	// Limits configures the traversal defenses: per-origin budgets, the
	// scope allowlist, fanout/queue caps, and oversized/slow-body
	// cutoffs. The zero value disables all of them.
	Limits Limits
	// MaxConcurrent bounds parallel dereferences (default 6).
	MaxConcurrent int
	// MaxDocuments caps traversal (0 = unbounded). A safety valve for
	// exhaustive strategies such as cAll.
	MaxDocuments int
	// MaxDepth caps traversal depth: links discovered more than MaxDepth
	// hops from a seed are not followed (0 = unbounded). Depth-bounded
	// reachability is a classic LTQP completeness/cost trade-off.
	MaxDepth int
	// Lenient makes traversal tolerate fetch/parse failures, mirroring
	// the --lenient flag of the paper's CLI (Fig. 2). Non-lenient
	// traversal aborts the query on the first failure. Degradation()
	// reports what a lenient execution ran without.
	Lenient bool
	// Retry, when non-nil, retries transient dereference failures
	// (transport errors, 429/5xx, stalled responses) with capped
	// exponential backoff before giving up on a document. Nil means a
	// single attempt — every failure is immediately terminal.
	Retry *deref.RetryPolicy
	// Obs, when non-nil, aggregates process-level metrics across every
	// query of this engine (counters, gauges, latency histograms with
	// Prometheus exposition) and registers executions with the query
	// tracker behind /debug/queries. Nil disables all of it at zero
	// cost on the hot paths.
	Obs *obs.Observer
	// Trace records a span tree per query (parse → plan → per-document
	// dereference attempts → link extraction → join/iterator stages)
	// even without an Observer; Execution.Trace returns it. Tracing is
	// also enabled when Obs.TraceQueries is set.
	Trace bool
	// Events, when non-nil, publishes the engine's ordered event stream —
	// query lifecycle, pipeline stages, dereferences, link discovery and
	// pruning, retries, result arrival — to whoever subscribes (the SSE
	// feed, the slog adapter, the JSONL journal). With no subscriber
	// attached, publishing is a nil check plus one atomic load: the hot
	// path performs zero allocations (benchmarked in internal/obs).
	Events *obs.Bus
	// Shared, when non-nil, layers a cross-engine shared document cache
	// (internal/serve.SharedCache) under every dereference: fresh entries
	// skip the network, stale entries revalidate with conditional GETs,
	// and concurrent fetches of one IRI collapse to a single flight — the
	// browser disk cache visible in the paper's Fig. 4.
	Shared deref.SharedCache
	// ExecWorkers sizes the executor's morsel worker pool (parallel join
	// probes and grouping); 0 means GOMAXPROCS.
	ExecWorkers int
	// Explain enables the per-query explain layer: every solution is
	// annotated with the exact set of documents whose triples produced it
	// (result provenance), and traversal records its link-discovery
	// topology — a node per dereferenced document, an edge per discovered
	// link labeled with the extractor that found it and whether it was
	// followed, deduplicated, or pruned — plus the result-arrival
	// timeline. Execution.Explain exports the report; when an Observer is
	// attached, the topology also appears on /debug/topology. Off by
	// default: the disabled path adds one nil check per pattern match and
	// zero allocations.
	Explain bool
	// MemBudget caps one query's ledger-accounted memory in bytes (0 =
	// unlimited). A query whose live charges cross the budget is cancelled
	// with a *resource.BudgetExceededError carrying the full per-layer
	// breakdown; sibling queries on the same engine are unaffected. A
	// positive budget enables the resource ledger even without an Observer.
	MemBudget int64
}

// Engine executes SPARQL queries over Solid pods by link traversal.
type Engine struct {
	opts Options
	// dict is the engine-scoped term dictionary: parsers, the document
	// cache, and every per-query store intern into it, so term IDs are
	// stable across queries and repeated documents cost no new string
	// allocations.
	dict *rdf.Dict
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.Client == nil {
		opts.Client = defaultClient(opts.MaxConcurrent)
	}
	return &Engine{opts: opts, dict: rdf.NewDict()}
}

// defaultClient is the client of an engine that was given none. A pod is one
// origin, and http.DefaultTransport keeps only two idle connections per host:
// with more workers than that, every round of fetches closed the surplus
// connections and the next round dialed them again. The engine's own
// transport keeps one idle connection per worker.
func defaultClient(workers int) *http.Client {
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultClient // replaced by the program: leave it alone
	}
	t := base.Clone()
	t.MaxIdleConnsPerHost = workers
	return &http.Client{Transport: t}
}

// Execution is a running query. Results stream on Results while traversal
// and execution proceed concurrently; the channel closes when the query
// completes (or the context is cancelled). After the channel closes, Err
// reports a traversal failure (always nil under Lenient).
type Execution struct {
	// Query is the parsed query.
	Query *sparql.Query
	// Vars are the projected variable names, in projection order.
	Vars []string
	// Results streams the solutions.
	Results <-chan rdf.Binding
	// Recorder captures the HTTP waterfall and result timings.
	Recorder *metrics.Recorder
	// Seeds are the seed URLs traversal started from.
	Seeds []string
	// Plan is the optimized logical plan (for EXPLAIN-style output).
	Plan algebra.Operator

	cancel context.CancelFunc
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

// ID returns the query's correlation id: the same id appears on the
// query's events, journal lines, structured log records and the
// /debug/queries tracker, so one execution can be followed across every
// observability surface.
func (x *Execution) ID() int64 { return x.id }

// Trace returns the execution's span tree, or nil when tracing is off. The
// tree is complete once Results has closed.
func (x *Execution) Trace() *obs.Trace { return x.trace }

// Topology returns the traversal topology recorder, or nil when the engine
// ran without Options.Explain. Complete once Results has closed.
func (x *Execution) Topology() *obs.Topology { return x.topo }

// Prov returns the provenance sink, or nil when the engine ran without
// Options.Explain.
func (x *Execution) Prov() *exec.Prov { return x.prov }

// Resources returns the query's resource-ledger snapshot — live and peak
// bytes per layer, budget state — or nil when the engine ran without
// accounting (no Observer and no MemBudget). Final once Results has closed;
// calling earlier returns the in-flight state.
func (x *Execution) Resources() *resource.Snapshot { return x.ledger.Snapshot() }

// Err returns the traversal error, if any. Valid after Results closes.
func (x *Execution) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

func (x *Execution) setErr(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err == nil {
		x.err = err
	}
}

// Close aborts the execution. It is safe to call multiple times.
func (x *Execution) Close() { x.cancel() }

// StoreSize reports how many triples traversal has accumulated so far.
func (x *Execution) StoreSize() int { return x.store.Len() }

// Degradation reports how far the execution ran short of the fault-free
// ideal: documents abandoned after exhausting their retries, and the retry
// count. Under Lenient these losses are otherwise silent — a caller that
// cares whether results are partial should inspect this after Results
// closes.
func (x *Execution) Degradation() metrics.Degradation {
	return x.Recorder.Degradation()
}

// CriticalPath attributes the execution's latency to its gating
// dereference chains; nil before any request was recorded. When the query
// ran with Explain, the first result's provenance pins the gating document
// exactly; otherwise the latest-finishing successful fetch before the
// first result stands in.
func (x *Execution) CriticalPath() *obs.CritPath {
	reqs := x.Recorder.Requests()
	if len(reqs) == 0 {
		return nil
	}
	var firstSources []string
	if x.topo != nil {
		firstSources = x.topo.FirstResultSources()
	}
	return obs.ComputeCritPath(reqs, x.Recorder.Epoch(), x.Recorder.ResultTimes(), firstSources)
}

// Query parses and starts a query. Seed URLs are taken from seeds; when
// empty, they are derived from IRIs mentioned in the query.
func (e *Engine) Query(ctx context.Context, queryStr string, seeds []string) (*Execution, error) {
	qid := obs.NextQueryID()
	qctx := obs.ContextWithQueryID(ctx, qid)
	// Every occurrence of the query is reported once, as an event; the
	// explain topology is a fold over them, attached to the emitter so it
	// sees each one whether or not anyone subscribes to the bus.
	var topo *obs.Topology
	if e.opts.Explain {
		topo = obs.NewTopology()
	}
	emitter := obs.NewEmitter(e.opts.Events, qid, topo)
	var trace *obs.Trace
	if e.opts.Trace || (e.opts.Obs != nil && e.opts.Obs.TraceQueries) {
		qctx, trace = obs.NewTrace(qctx, "query", obs.Str("query", compactQuery(queryStr)))
	}

	stage := func(name string) func() {
		emitter.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: name})
		start := time.Now()
		return func() {
			emitter.Emit(obs.Event{Kind: obs.EventStageFinished, Stage: name,
				DurationUS: time.Since(start).Microseconds()})
		}
	}

	t0 := time.Now()
	_, parseSpan := obs.StartSpan(qctx, "parse")
	q, err := sparql.ParseQuery(queryStr)
	if err != nil {
		parseSpan.End()
		return nil, err
	}
	if len(seeds) == 0 {
		seeds = q.MentionedIRIs()
	}
	parseSpan.End()
	parseDur := time.Since(t0)
	if len(seeds) == 0 {
		return nil, errors.New("core: no seed URLs: provide seeds or mention IRIs in the query")
	}
	// query_started is always a query's first event; the parse stage pair
	// is emitted retroactively (with explicit timestamps) once the seeds
	// it produced are known. A query that fails before this point emits
	// nothing: no started event without a matching finished one.
	if emitter.Active() {
		emitter.Emit(obs.Event{Kind: obs.EventQueryStarted, Time: t0,
			Detail: compactQuery(queryStr), Seeds: seeds})
		emitter.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: "parse", Time: t0})
		emitter.Emit(obs.Event{Kind: obs.EventStageFinished, Stage: "parse",
			Time: t0.Add(parseDur), DurationUS: parseDur.Microseconds()})
	}

	planDone := stage("plan")
	_, planSpan := obs.StartSpan(qctx, "plan")
	op, err := algebra.Translate(q)
	if err != nil {
		planSpan.End()
		planDone()
		return nil, err
	}
	op = plan.New(seeds).Optimize(op)
	planSpan.End()
	planDone()

	src := store.NewWithDict(e.dict)
	recorder := metrics.NewRecorder()
	runCtx, cancel := context.WithCancel(qctx)

	x := &Execution{
		Query:    q,
		Vars:     q.ProjectedVars(),
		Recorder: recorder,
		Seeds:    seeds,
		Plan:     op,
		cancel:   cancel,
		id:       qid,
		store:    src,
		trace:    trace,
		topo:     topo,
		queryStr: queryStr,
	}
	if x.queuePolicy = e.opts.QueuePolicy; x.queuePolicy == "" {
		x.queuePolicy = linkqueue.PolicyFIFO
	}

	m := obs.On(e.opts.Obs.M())
	m.QueriesStarted.Inc()
	m.QueriesInFlight.Inc()
	var rec *obs.QueryRecord
	if e.opts.Obs != nil {
		rec = e.opts.Obs.Tracker.Start(qid, queryStr, seeds, trace)
		rec.SetTenant(obs.TenantFromContext(ctx))
	}
	queryStart := time.Now()
	x.start = queryStart
	if e.opts.Explain {
		x.prov = exec.NewProv()
		rec.AttachTopology(topo)
	}

	// The resource ledger accounts every layer's memory against this query:
	// deref charges fetched documents, the store its triples and indexes,
	// exec its batches and arenas, serve its pinned cache entries. Enabled
	// whenever an Observer is attached (live cost attribution) or a budget
	// is set (enforcement); otherwise nil, and every charge site no-ops.
	var ledger *resource.Ledger
	if e.opts.MemBudget > 0 || e.opts.Obs != nil {
		ledger = resource.New(qid, obs.TenantFromContext(ctx), e.opts.MemBudget)
		ledger.OnExceeded(func(berr *resource.BudgetExceededError) {
			x.setErr(berr)
			m.MemBudgetExceeded.Inc()
			if emitter.Active() {
				emitter.Emit(obs.Event{Kind: obs.EventResourceSnapshot,
					MemBytes: berr.Attempted, MemPeak: berr.Breakdown.Peak,
					Detail: berr.Breakdown.BreakdownString(), Err: berr.Error()})
			}
			cancel()
		})
		x.ledger = ledger
		src.SetLedger(ledger)
		rec.AttachLedger(ledger)
	}

	shape := ShapeOf(q)
	extractors := extract.DefaultSolidSet(shape)
	if e.opts.Extractors != nil {
		extractors = e.opts.Extractors(shape)
	}

	// Traversal feeds the store; closing the store ends the pipeline.
	go func() {
		traverseDone := stage("traverse")
		tctx, tspan := obs.StartSpan(runCtx, "traverse")
		err := e.traverse(tctx, seeds, extractors, shape, src, recorder, emitter, ledger)
		tspan.End()
		traverseDone()
		// Being cancelled by the pipeline, which has every row it needs
		// (LIMIT, ASK), is how such a query ends, not a failure of it.
		if err != nil && !e.opts.Lenient && !(x.satisfied.Load() && errors.Is(err, context.Canceled)) {
			x.setErr(err)
			cancel()
		}
		src.Close()
	}()

	// The executor pipeline drains into the public results channel, where
	// result timestamps are recorded.
	env := exec.NewEnv(src)
	env.Prov = x.prov
	env.Events = emitter
	env.Workers = e.opts.ExecWorkers
	env.Ledger = ledger
	out := make(chan rdf.Binding)
	go func() {
		defer close(out)
		first := true
		row := 0
		defer func() {
			err := x.Err()
			if err != nil {
				m.QueriesFailed.Inc()
			} else {
				m.QueriesSucceeded.Inc()
			}
			m.QueriesInFlight.Dec()
			dur := time.Since(queryStart)
			if ledger != nil {
				m.QueryMemPeak.Observe(float64(ledger.Peak()))
				if charged := ledger.Charged(); charged > 0 {
					tenant := ledger.Tenant()
					if tenant == "" {
						tenant = "default"
					}
					m.TenantMemCharged.With(tenant).Add(charged)
				}
				e.opts.Obs.Res().Record(ledger)
				if emitter.Active() {
					emitter.Emit(obs.Event{Kind: obs.EventResourceSnapshot,
						MemBytes: ledger.Current(), MemPeak: ledger.Peak(),
						Detail: ledger.Snapshot().BreakdownString()})
				}
			}
			trace.End()
			// Tail-sampling keep decision: now that the outcome is known,
			// offer the trace to the store. The span tree, request timeline
			// and critical path are materialized only when kept; the trace
			// ID stamps the query-duration bucket as an exemplar so a slow
			// bucket on /metrics points at a retained trace.
			var keptTrace string
			if ts := e.opts.Obs.TraceStore(); ts != nil && trace != nil {
				o := obs.TraceOutcome{
					TraceID:  trace.ID(),
					QueryID:  qid,
					Query:    compactQuery(queryStr),
					Tenant:   obs.TenantFromContext(ctx),
					Start:    queryStart,
					Duration: dur,
					Results:  row,
					Degraded: recorder.Degradation().Degraded(),
				}
				if t, ok := recorder.TimeToFirstResult(); ok {
					o.TTFR = t
				}
				if err != nil {
					o.Err = err.Error()
					var berr *resource.BudgetExceededError
					o.BudgetExceeded = errors.As(err, &berr)
				}
				if kept, _ := ts.Offer(o, func(tr *obs.TraceRecord) {
					tr.Root = trace.Snapshot()
					tr.Requests = obs.RequestsJSON(recorder.Requests(), recorder.Epoch())
					tr.CriticalPath = x.CriticalPath()
				}); kept {
					keptTrace = o.TraceID
				}
			}
			m.QueryDuration.ObserveExemplar(dur.Seconds(), keptTrace)
			if x.prov != nil {
				rec.SetContributions(docMatches(x.prov.Contributions()))
			}
			if e.opts.Obs != nil {
				e.opts.Obs.Tracker.Finish(rec, err)
			}
			// Emitted before the deferred close(out) above runs (LIFO), so
			// the journal's query_finished always precedes the caller
			// observing the end of the result stream.
			if emitter.Active() {
				ev := obs.Event{Kind: obs.EventQueryFinished, Rows: row,
					DurationUS: time.Since(queryStart).Microseconds()}
				if err != nil {
					ev.Err = err.Error()
				}
				emitter.Emit(ev)
			}
		}()
		// A finished pipeline normally aborts any remaining traversal; a
		// DESCRIBE query still needs the full traversed store for its
		// concise bounded descriptions, so traversal runs to completion.
		if q.Form != sparql.FormDescribe {
			defer func() {
				// Only a pipeline that finished on its own makes the
				// cancellation clean; one that was itself cancelled (by the
				// caller, a budget, a traversal error) changes nothing.
				x.satisfied.Store(runCtx.Err() == nil)
				cancel()
			}()
		}
		execDone := stage("exec")
		defer execDone()
		ectx, espan := obs.StartSpan(runCtx, "exec")
		defer espan.End()
		emit := func(b rdf.Binding) bool {
			select {
			case out <- b:
				if first {
					first = false
					m.TimeToFirstResult.Observe(time.Since(queryStart).Seconds())
				}
				m.ResultsEmitted.Inc()
				rec.AddResult()
				row++
				ev := obs.Event{Kind: obs.EventResultEmitted, Row: row}
				if x.prov != nil {
					ev.Sources = b.Sources()
				}
				emitter.Emit(ev)
				return true
			case <-ctx.Done():
				return false
			}
		}
		for b := range exec.Eval(ectx, op, env) {
			recorder.RecordResult()
			if !emit(b) {
				return
			}
		}
	}()
	x.Results = out
	return x, nil
}

// compactQuery collapses a query's whitespace for span/tracker annotation.
func compactQuery(q string) string {
	fields := strings.Fields(q)
	s := strings.Join(fields, " ")
	if len(s) > 200 {
		s = s[:197] + "..."
	}
	return s
}

// Select runs a SELECT query to completion and returns all solutions.
func (e *Engine) Select(ctx context.Context, queryStr string, seeds []string) ([]rdf.Binding, *Execution, error) {
	x, err := e.Query(ctx, queryStr, seeds)
	if err != nil {
		return nil, nil, err
	}
	var all []rdf.Binding
	for b := range x.Results {
		all = append(all, b)
	}
	if err := x.Err(); err != nil {
		return all, x, err
	}
	if err := ctx.Err(); err != nil {
		return all, x, err
	}
	return all, x, nil
}

// Ask runs an ASK query.
func (e *Engine) Ask(ctx context.Context, queryStr string, seeds []string) (bool, error) {
	x, err := e.Query(ctx, queryStr, seeds)
	if err != nil {
		return false, err
	}
	if x.Query.Form != sparql.FormAsk {
		x.Close()
		return false, errors.New("core: Ask requires an ASK query")
	}
	found := false
	for range x.Results {
		found = true
	}
	return found, x.Err()
}

// Construct runs a CONSTRUCT query and returns the built graph.
func (e *Engine) Construct(ctx context.Context, queryStr string, seeds []string) ([]rdf.Triple, error) {
	x, err := e.Query(ctx, queryStr, seeds)
	if err != nil {
		return nil, err
	}
	if x.Query.Form != sparql.FormConstruct {
		x.Close()
		return nil, errors.New("core: Construct requires a CONSTRUCT query")
	}
	g := rdf.NewGraph()
	bnodeN := 0
	for b := range x.Results {
		bnodeN++
		for _, tp := range x.Query.Template {
			tr, ok := instantiate(tp, b, bnodeN)
			if ok {
				g.Add(tr)
			}
		}
	}
	return g.Triples(), x.Err()
}

// instantiate fills a CONSTRUCT template pattern from a solution; blank
// nodes in the template are scoped per solution.
func instantiate(tp sparql.TriplePattern, b rdf.Binding, scope int) (rdf.Triple, bool) {
	simple, ok := tp.IsSimple()
	if !ok {
		return rdf.Triple{}, false
	}
	fill := func(t rdf.Term) (rdf.Term, bool) {
		switch t.Kind {
		case rdf.TermVar:
			v, ok := b.Get(t.Value)
			return v, ok
		case rdf.TermBlank:
			return rdf.NewBlank(fmt.Sprintf("%s.r%d", t.Value, scope)), true
		default:
			return t, true
		}
	}
	s, ok1 := fill(simple.S)
	p, ok2 := fill(simple.P)
	o, ok3 := fill(simple.O)
	if !ok1 || !ok2 || !ok3 || !rdf.NewTriple(s, p, o).IsGround() {
		return rdf.Triple{}, false
	}
	return rdf.NewTriple(s, p, o), true
}

// traversal is one run of the paper's Fig. 1 loop — link queue →
// dereferencer → link extractors → back into the queue, feeding the growing
// triple source — shared by its MaxConcurrent workers.
type traversal struct {
	e          *Engine
	ctx        context.Context
	queue      linkqueue.Queue
	guard      *limitGuard
	deref      *deref.Dereferencer
	extractors []extract.Extractor
	needGraph  bool // an extractor reads an rdf.Graph, not the link table
	shape      *extract.QueryShape
	src        *store.Store
	recorder   *metrics.Recorder
	events     *obs.Emitter
	m          *obs.Metrics
	ledger     *resource.Ledger

	mu      sync.Mutex
	cond    *sync.Cond // a link was pushed, the last active worker went idle, or the traversal stopped
	active  int        // links handed out by next and not yet visited
	fetched int        // links handed out in total, against MaxDocuments
	err     error      // first failure of a non-lenient traversal
}

// traverse runs the link traversal loop over the seeds: MaxConcurrent
// workers each take the next link, dereference it, add its triples to the
// source, run the link extractors and push what they found. It returns once
// every worker has exited — the queue is empty and no document is in
// flight, the context is cancelled, or a non-lenient traversal failed — so
// nothing is ingested after it returns. The configured Limits are enforced
// throughout (limits.go).
func (e *Engine) traverse(ctx context.Context, seeds []string, extractors []extract.Extractor,
	shape *extract.QueryShape, src *store.Store, recorder *metrics.Recorder,
	events *obs.Emitter, ledger *resource.Ledger) error {

	t := &traversal{e: e, ctx: ctx, extractors: extractors, shape: shape, src: src,
		recorder: recorder, events: events, m: obs.On(e.opts.Obs.M()), ledger: ledger,
		queue: e.opts.QueuePolicy.New(relevanceOf(shape)),
		guard: newLimitGuard(e.opts.Limits, seeds), needGraph: extract.NeedsGraph(extractors)}
	t.cond = sync.NewCond(&t.mu)
	t.deref = &deref.Dereferencer{
		Client:       e.opts.Client,
		Auth:         e.opts.Auth,
		Recorder:     recorder,
		Shared:       e.opts.Shared,
		Retry:        e.opts.Retry,
		Obs:          e.opts.Obs.M(),
		Events:       events,
		UserAgent:    "ltqp-go/1.0 (link-traversal SPARQL engine)",
		Dict:         e.dict,
		Ledger:       ledger,
		MaxBodyBytes: e.opts.Limits.MaxDocBytes,
		BodyTimeout:  e.opts.Limits.BodyTimeout,
	}
	for _, s := range seeds {
		t.push(linkqueue.Link{URL: s, Reason: "seed", Extractor: "seed"})
	}
	// Whatever is still queued when traversal ends (cancellation, document
	// cap) must not linger in the process-wide depth gauge.
	defer func() { t.m.LinkQueueDepth.Add(-int64(t.queue.Len())) }()
	// Cancellation must reach the workers waiting in next.
	stop := context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer stop()

	var workers sync.WaitGroup
	for i := 0; i < e.opts.MaxConcurrent; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for l, ok := t.next(); ok; l, ok = t.next() {
				t.visit(l)
				t.mu.Lock()
				if t.active--; t.active == 0 {
					t.cond.Broadcast() // nothing in flight can refill the queue
				}
				t.mu.Unlock()
			}
		}()
	}
	workers.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.err
}

// next hands a worker the next link to dereference, waiting while the queue
// is empty but documents in flight may still refill it. ok is false when the
// traversal is over: complete (queue empty, no worker active), cancelled, or
// failed — documents already being visited finish, none start.
func (t *traversal) next() (l linkqueue.Link, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ctx.Err() == nil && t.err == nil {
		if l, ok = t.queue.Pop(); !ok {
			if t.active == 0 {
				break
			}
			t.cond.Wait()
			continue
		}
		t.m.LinkQueueDepth.Dec()
		// Track the link queue's evolution over the execution [34].
		t.recorder.RecordQueueSample(t.queue.Len(), t.queue.Seen())
		if max := t.e.opts.MaxDocuments; max > 0 && t.fetched >= max {
			continue // cap reached: drain without fetching
		}
		if admitted, trip := t.guard.admitFetch(l.URL); !admitted {
			// Origin over its document or byte budget: drain without
			// fetching. (Unlocked: a trip may fail the traversal.)
			t.mu.Unlock()
			t.settle(l, obs.FateOriginBudgetPruned, trip)
			t.mu.Lock()
			continue
		}
		t.fetched++
		t.active++
		return l, true
	}
	return linkqueue.Link{}, false
}

// fail stops a non-lenient traversal with its first error.
func (t *traversal) fail(err error) {
	if t.e.opts.Lenient {
		return
	}
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// push is the one place a link enters the queue. It reports whether the
// queue accepted it (false: its URL was seen before).
func (t *traversal) push(l linkqueue.Link) bool {
	if !t.queue.Push(l) {
		return false
	}
	t.m.LinksQueued.Inc()
	t.m.LinkQueueDepth.Inc()
	ev := obs.Event{Kind: obs.EventLinkQueued, URL: l.URL,
		Via: l.Via, Extractor: l.Extractor, Reason: l.Reason, Depth: l.Depth}
	if ranked, ok := t.queue.(linkqueue.Scorer); ok && t.events.Active() {
		ev.Score = ranked.Score(l)
	}
	t.events.Emit(ev)
	t.mu.Lock()
	t.cond.Signal()
	t.mu.Unlock()
	return true
}

// visit is one turn of the loop for one link: dereference it, add its
// triples to the source, run the link extractors over it and offer every
// link they propose to the queue.
func (t *traversal) visit(l linkqueue.Link) {
	// Hold a per-origin slot for the duration of the fetch, so one slow or
	// hostile origin cannot absorb the whole global concurrency budget.
	if slot := t.guard.originSlot(l.URL); slot != nil {
		select {
		case slot <- struct{}{}:
			defer func() { <-slot }()
		case <-t.ctx.Done():
			return
		}
	}
	wctx, dspan := obs.StartSpan(t.ctx, "document",
		obs.Str("url", l.URL), obs.Str("reason", l.Reason), obs.Int("depth", l.Depth))
	defer dspan.End()
	fetchStart := time.Now()
	res, derefCat, err := t.deref.DereferenceTracked(wctx, l.URL, l.Via, l.Reason)
	if err != nil {
		if t.events.Active() {
			t.events.Emit(obs.Event{Kind: obs.EventDocumentDereferenced,
				URL: l.URL, Via: l.Via, Depth: l.Depth, Err: err.Error(),
				DurationUS: time.Since(fetchStart).Microseconds()})
		}
		dspan.SetAttr(obs.Str("error", err.Error()))
		// An oversized or slow-loris body is a contained defense trip, not a
		// generic fetch failure: lenient traversals go on without it.
		switch origin := linkqueue.Origin(l.URL); {
		case t.guard != nil && errors.Is(err, deref.ErrBodyLimit):
			t.tripped(t.guard.record(LimitDocBytes, origin, l.URL, t.deref.BodyLimit(), 0))
		case t.guard != nil && errors.Is(err, deref.ErrSlowBody):
			t.tripped(t.guard.record(LimitSlowBody, origin, l.URL, int64(t.deref.BodyTimeout/time.Millisecond), 0))
		default:
			t.fail(err)
		}
		return
	}
	// The dereference charged the document's bytes to the ledger (the
	// in-flight parse); released once it is ingested into the store — which
	// takes over accounting for the retained triples — and its links are
	// extracted.
	if t.ledger != nil && !res.NotModified {
		defer t.ledger.Release(derefCat, res.Bytes)
	}
	t.guard.addBytes(res.FinalURL, res.Bytes)
	// A segment encoded against this engine's dictionary goes in as it is.
	// One from another engine sharing the cache (other IDs), or a result
	// without one, is interned here.
	seg := res.Segment
	if seg != nil && seg.Dict == t.src.Dict() {
		t.src.AddEncoded(seg.Source, seg.Triples)
	} else {
		t.src.AddDocument(res.FinalURL, res.Triples)
	}
	if learns, ok := t.queue.(linkqueue.Feedback); ok {
		learns.DocumentIngested(res.FinalURL, relevantTriples(res.Triples, t.shape), len(res.Triples))
	}
	t.events.Emit(obs.Event{Kind: obs.EventDocumentDereferenced,
		URL: res.FinalURL, Via: l.Via, Depth: l.Depth, Status: res.Status,
		Triples: len(res.Triples), Bytes: res.Bytes,
		DurationUS: time.Since(fetchStart).Microseconds()})
	dspan.SetAttr(obs.Int("triples", len(res.Triples)))

	// The built-in extractors read the document's precomputed link table; an
	// rdf.Graph is built only for extractors that want one.
	doc := extract.Document{IRI: res.FinalURL}
	if seg != nil {
		doc.Links = seg.Links
	}
	if t.needGraph || doc.Links == nil {
		doc.Graph = rdf.NewGraph()
		doc.Graph.AddAll(res.Triples)
	}
	_, xspan := obs.StartSpan(wctx, "extract")
	accepted := 0
	var linkBuf [16]extract.Link // on the stack: most documents propose fewer
	for _, link := range extract.AppendLinks(linkBuf[:0], t.extractors, doc) {
		t.events.Emit(obs.Event{Kind: obs.EventLinkDiscovered,
			URL: link.URL, Via: res.FinalURL, Extractor: link.Extractor, Reason: link.Reason})
		found := linkqueue.Link{URL: link.URL, Via: res.FinalURL, Reason: link.Reason,
			Extractor: link.Extractor, Depth: l.Depth + 1, Key: link.Key}
		fate, trip := t.fate(found, l.URL, accepted)
		if fate == obs.EdgeFollowed {
			accepted++
		}
		t.settle(found, fate, trip)
	}
	xspan.SetAttr(obs.Int("links", accepted))
	xspan.End()
}
