package ltqp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/core"
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

// defaultMaxConcurrent mirrors a browser's per-host connection budget, the
// environment the paper demonstrates in.
const defaultMaxConcurrent = 6

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

// Query starts a SPARQL query with seeds derived from the query (IRIs
// mentioned in its patterns) or the engine's default seeds.
func (e *Engine) Query(ctx context.Context, query string) (*Result, error) {
	return e.QueryWithSeeds(ctx, query, nil)
}

// QueryWithSeeds starts a SPARQL query from explicit seed URLs. Without
// any, the engine's default seeds (Config.Seeds) apply, and without those
// the IRIs the query mentions.
func (e *Engine) QueryWithSeeds(ctx context.Context, query string, seeds []string) (*Result, error) {
	if e.policyErr != nil {
		return nil, e.policyErr
	}
	if len(seeds) == 0 {
		seeds = e.cfg.Seeds
	}
	qid := obs.NextQueryID()
	qctx := obs.ContextWithQueryID(ctx, qid)
	var trace *obs.Trace
	if e.cfg.Trace || (e.cfg.Obs != nil && e.cfg.Obs.TraceQueries) {
		qctx, trace = obs.NewTrace(qctx, "query", obs.Str("query", compactQuery(query)))
	}

	t0 := time.Now()
	_, parseSpan := obs.StartSpan(qctx, "parse")
	q, err := sparql.ParseQuery(query)
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
		return nil, errors.New("ltqp: no seed URLs: provide seeds or mention IRIs in the query")
	}

	// From here on every occurrence of the query is one event, and the
	// recorder, topology, process instruments, tracker record and tail
	// sampler are folds of them, run by the emitter whether or not anyone
	// subscribes to the bus. A query that fails before this emits nothing.
	var topo *obs.Topology
	if e.cfg.Explain {
		topo = obs.NewTopology()
	}
	var rec *obs.QueryRecord
	if e.cfg.Obs != nil {
		rec = e.cfg.Obs.Tracker.Start(qid, query, seeds, trace)
		rec.SetTenant(obs.TenantFromContext(ctx))
		rec.AttachTopology(topo)
	}
	recorder := metrics.NewRecorder()
	emitter := obs.NewEmitter(e.cfg.Events, qid, topo, recorder, e.cfg.Obs, rec, trace)

	// query_started is always a query's first event, and its time the
	// recorder's epoch; the parse stage pair is emitted retroactively (with
	// explicit timestamps) once the seeds it produced are known.
	started := obs.Event{Kind: obs.EventQueryStarted, Time: t0}
	if emitter.Active() || trace != nil {
		started.Detail, started.Seeds = compactQuery(query), seeds
	}
	emitter.Emit(started)
	emitter.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: "parse", Time: t0})
	emitter.Emit(obs.Event{Kind: obs.EventStageFinished, Stage: "parse",
		Time: t0.Add(parseDur), DurationUS: parseDur.Microseconds()})
	stage := func(name string) func() {
		emitter.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: name})
		start := time.Now()
		return func() {
			emitter.Emit(obs.Event{Kind: obs.EventStageFinished, Stage: name,
				DurationUS: time.Since(start).Microseconds()})
		}
	}

	planDone := stage("plan")
	_, planSpan := obs.StartSpan(qctx, "plan")
	op, err := algebra.Translate(q)
	if err != nil {
		planSpan.End()
		planDone()
		trace.End()
		emitter.Emit(obs.Event{Kind: obs.EventQueryFinished, Err: err.Error(),
			DurationUS: time.Since(t0).Microseconds()})
		return nil, err
	}
	op = plan.New(seeds).Optimize(op)
	planSpan.End()
	planDone()

	src := store.NewWithDict(e.dict)
	runCtx, cancel := context.WithCancel(qctx)

	x := &Result{
		Vars:        q.ProjectedVars(),
		Seeds:       seeds,
		query:       q,
		plan:        op,
		recorder:    recorder,
		cancel:      cancel,
		id:          qid,
		store:       src,
		trace:       trace,
		topo:        topo,
		queryStr:    query,
		queuePolicy: e.policy,
	}
	if e.cfg.Explain {
		x.prov = exec.NewProv()
	}

	// The resource ledger accounts every layer's memory against this query:
	// deref charges fetched documents, the store its triples and indexes,
	// exec its batches and arenas, serve its pinned cache entries. Enabled
	// whenever an Observer is attached (live cost attribution) or a budget
	// is set (enforcement); otherwise nil, and every charge site no-ops.
	var ledger *resource.Ledger
	if e.cfg.MemBudget > 0 || e.cfg.Obs != nil {
		ledger = resource.New(qid, obs.TenantFromContext(ctx), e.cfg.MemBudget)
		ledger.OnExceeded(func(berr *resource.BudgetExceededError) {
			x.setErr(berr)
			ev := snapshotEvent(berr.Breakdown)
			ev.MemBytes, ev.Err = berr.Attempted, berr.Error()
			emitter.Emit(ev)
			cancel()
		})
		x.ledger = ledger
		src.SetLedger(ledger)
		rec.AttachLedger(ledger)
	}

	shape := core.ShapeOf(q)
	extractors := e.cfg.Strategy.extractors(shape)

	// Traversal feeds the store; closing the store ends the pipeline.
	go func() {
		traverseDone := stage("traverse")
		tctx, tspan := obs.StartSpan(runCtx, "traverse")
		err := e.traverse(tctx, seeds, extractors, shape, src, recorder, emitter, ledger)
		tspan.End()
		traverseDone()
		// Being cancelled by the pipeline, which has every row it needs
		// (LIMIT, ASK), is how such a query ends, not a failure of it.
		if err != nil && !e.cfg.Lenient && !(x.satisfied.Load() && errors.Is(err, context.Canceled)) {
			x.setErr(err)
			cancel()
		}
		src.Close()
	}()

	// The executor pipeline drains into the public results channel; every
	// row delivered there is one result_emitted event.
	env := exec.NewEnv(src)
	env.Prov = x.prov
	env.Events = emitter
	env.Ledger = ledger
	out := make(chan rdf.Binding)
	go func() {
		defer close(out)
		row := 0
		// Emitted before the deferred close(out) above runs (LIFO), so the
		// journal's query_finished always precedes the caller observing the
		// end of the result stream.
		defer func() {
			if ledger != nil {
				emitter.Emit(snapshotEvent(ledger.Snapshot()))
			}
			if x.prov != nil {
				rec.SetContributions(x.prov.Contributions())
			}
			trace.End()
			ev := obs.Event{Kind: obs.EventQueryFinished, Rows: row,
				DurationUS: time.Since(t0).Microseconds()}
			if err := x.Err(); err != nil {
				ev.Err = err.Error()
			}
			emitter.Emit(ev)
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
		for b := range exec.Eval(ectx, op, env) {
			select {
			case out <- b:
				row++
				ev := obs.Event{Kind: obs.EventResultEmitted, Row: row}
				if x.prov != nil {
					ev.Sources = b.Sources()
				}
				emitter.Emit(ev)
			case <-runCtx.Done():
				// Close cancels runCtx: a caller that stops reading must not
				// strand this goroutine on a row nobody will take.
				return
			}
		}
	}()
	x.Results = out
	return x, nil
}

// snapshotEvent is a ledger snapshot as a resource_snapshot event: the
// tenant, the bytes charged in all, the live bytes, the peak and the
// per-layer breakdown.
func snapshotEvent(s *resource.Snapshot) obs.Event {
	return obs.Event{Kind: obs.EventResourceSnapshot, Tenant: s.Tenant, Bytes: s.Charged,
		MemBytes: s.Current, MemPeak: s.Peak, Detail: s.BreakdownString()}
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

// Select runs a SELECT query to completion.
func (e *Engine) Select(ctx context.Context, query string, seeds ...string) ([]Binding, error) {
	res, err := e.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		return nil, err
	}
	var all []Binding
	for b := range res.Results {
		all = append(all, b)
	}
	if err := res.Err(); err != nil {
		return all, err
	}
	return all, ctx.Err()
}

// Ask runs an ASK query.
func (e *Engine) Ask(ctx context.Context, query string, seeds ...string) (bool, error) {
	x, err := e.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		return false, err
	}
	if x.query.Form != sparql.FormAsk {
		x.Close()
		return false, errors.New("ltqp: Ask requires an ASK query")
	}
	found := false
	for range x.Results {
		found = true
	}
	return found, x.Err()
}

// Construct runs a CONSTRUCT query and returns the resulting triples.
func (e *Engine) Construct(ctx context.Context, query string, seeds ...string) ([]rdf.Triple, error) {
	x, err := e.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		return nil, err
	}
	if x.query.Form != sparql.FormConstruct {
		x.Close()
		return nil, errors.New("ltqp: Construct requires a CONSTRUCT query")
	}
	g := rdf.NewGraph()
	bnodeN := 0
	for b := range x.Results {
		bnodeN++
		for _, tp := range x.query.Template {
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
// nothing is ingested after it returns. The configured TraversalLimits are enforced
// throughout (limits.go).
func (e *Engine) traverse(ctx context.Context, seeds []string, extractors []extract.Extractor,
	shape *extract.QueryShape, src *store.Store, recorder *metrics.Recorder,
	events *obs.Emitter, ledger *resource.Ledger) error {

	t := &traversal{e: e, ctx: ctx, extractors: extractors, shape: shape, src: src,
		recorder: recorder, events: events, m: obs.On(e.cfg.Obs.M()), ledger: ledger,
		queue: e.policy.New(relevanceOf(shape)),
		guard: newLimitGuard(e.cfg.Limits, seeds), needGraph: extract.NeedsGraph(extractors)}
	t.cond = sync.NewCond(&t.mu)
	t.deref = &deref.Dereferencer{
		Client:       e.cfg.Client,
		Auth:         e.cfg.Auth,
		Shared:       e.shared,
		Retry:        e.cfg.Retry,
		Events:       events,
		UserAgent:    "ltqp-go/1.0 (link-traversal SPARQL engine)",
		Dict:         e.dict,
		Ledger:       ledger,
		MaxBodyBytes: e.cfg.Limits.MaxDocBytes,
		BodyTimeout:  e.cfg.Limits.BodyTimeout,
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
	for i := 0; i < e.cfg.MaxConcurrent; i++ {
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
		// At the document cap, or with its origin over its document or byte
		// budget, the link drains without fetching. (Unlocked: a trip may
		// fail the traversal; the cap is no trip.)
		if max := t.e.cfg.MaxDocuments; max > 0 && t.fetched >= max {
			t.mu.Unlock()
			t.settle(l, obs.FateDocCapPruned, nil)
			t.mu.Lock()
			continue
		}
		if admitted, trip := t.guard.admitFetch(l.URL); !admitted {
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
	if t.e.cfg.Lenient {
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
	res, derefCat, err := t.deref.DereferenceTracked(wctx, l.URL, l.Via, l.Reason)
	if err != nil {
		if dspan != nil {
			dspan.SetAttr(obs.Str("error", err.Error()))
		}
		// An oversized or slow-loris body is a contained defense trip, not a
		// generic fetch failure: lenient traversals go on without it.
		switch origin := linkqueue.Origin(l.URL); {
		case t.guard != nil && errors.Is(err, deref.ErrBodyLimit):
			t.tripped(t.guard.record(limitDocBytes, origin, l.URL, t.deref.BodyLimit(), 0))
		case t.guard != nil && errors.Is(err, deref.ErrSlowBody):
			t.tripped(t.guard.record(limitSlowBody, origin, l.URL, int64(t.deref.BodyTimeout/time.Millisecond), 0))
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
	// A segment encoded against this engine's dictionary goes in as it is;
	// one from another engine sharing the cache (other IDs) is decoded and
	// interned here.
	seg := res.Segment
	if seg.Dict == t.src.Dict() {
		t.src.AddEncoded(seg.Source, seg.Triples)
	} else {
		t.src.AddDocument(res.FinalURL, res.DecodedTriples())
	}
	if learns, ok := t.queue.(linkqueue.Feedback); ok {
		learns.DocumentIngested(res.FinalURL, relevantTriples(seg, t.shape), len(seg.Triples))
	}
	dspan.SetAttr(obs.Int("triples", len(seg.Triples)))

	// The built-in extractors read the document's link table; an rdf.Graph
	// is built only for extractors that want one.
	doc := extract.Document{IRI: res.FinalURL, Links: seg.Links}
	if t.needGraph {
		doc.Graph = rdf.NewGraph()
		doc.Graph.AddAll(res.DecodedTriples())
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
