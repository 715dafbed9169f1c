// Package exec implements the physical, pipelined execution of logical
// plans over the growing triple source. EvalBatch is the one executor:
// every operator is one goroutine, owning its state, exchanging batches of
// dictionary term IDs over channels, and Eval decodes the root's batches
// into bindings. No operator splits its work across further goroutines.
// Monotonic operators (basic graph patterns, joins and OPTIONAL's
// matches, unions, filters, binds, projections, distinct, LIMIT) emit
// solutions incrementally while traversal is still dereferencing documents,
// which is what lets first results appear long before the link queue
// drains. Blocking operators wait for their inputs to end (ORDER BY, GROUP
// BY, MINUS, the bare-row phase of OPTIONAL) or for the store to close
// (property paths, and every expression with EXISTS, which waits in
// evalExists and then runs its pattern through EvalBatch).
//
// Reference is a materialising evaluator over a closed store with an
// implementation of its own for every operator: it is the oracle the
// pipeline is tested against, and production never calls it.
package exec

import (
	"context"
	"strconv"
	"sync"

	"ltqp/internal/algebra"
	"ltqp/internal/obs"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// chanCap is the buffer size of the decoded result channel.
const chanCap = 64

// Stream is a channel of solution bindings produced by Eval.
type Stream <-chan rdf.Binding

// Env carries the evaluation environment shared by all operators of one
// query execution.
type Env struct {
	// Store is the growing triple source fed by traversal.
	Store *store.Store
	// NowFunc returns the evaluation time for NOW(); fixed per query.
	Now func() rdf.Term
	// Prov, when non-nil, makes pattern operators annotate every solution
	// with the source documents of its triples, so results carry the set
	// of documents whose triples joined to produce them. Nil (the default)
	// disables provenance at zero cost.
	Prov *Prov
	// Events, when non-nil, publishes per-operator stage_started and
	// stage_finished events (with row counts) to the owning query's event
	// stream while a subscriber is attached. Nil or audience-less events
	// cost one atomic load per operator, nothing per solution.
	Events *obs.Emitter
	// Ledger, when non-nil, is charged (under resource.Exec) for the
	// memory execution retains: batch slab capacity in flight, join and
	// grouping arenas, and rows buffered by blocking operators. Nil
	// disables accounting at zero cost.
	Ledger *resource.Ledger

	// dict is the engine term dictionary (shared with Store); hash-keyed
	// operators (join, DISTINCT, OPTIONAL bookkeeping) key on packed term
	// IDs from it instead of rendering lexical strings.
	dict *rdf.Dict
	// ctx stops the pattern runs of EXISTS: it is cancelled with the
	// context of the operator whose expressions this copy of the env
	// evaluates (see forExprs), and carries no trace.
	ctx context.Context
	// oracle makes EXISTS run its pattern with Reference (see Reference).
	oracle bool
	// outer is the row an enclosing EXISTS substituted into the pattern
	// this env runs: a nested EXISTS substitutes it too (§18.6).
	outer rdf.Binding
	// q is the state every copy of one query's env shares.
	q *queryState
}

// queryState is the mutable part of a query's environment.
type queryState struct {
	mu     sync.Mutex
	bnodeN int
	randN  uint64
	// exists holds the operator of every EXISTS pattern translated so far,
	// by the pattern's identity (see existsOp).
	exists map[any]algebra.Operator
}

// NewEnv returns an environment over the given source with a fixed NOW()
// value.
func NewEnv(src *store.Store) *Env {
	now := rdf.NewTypedLiteral("2024-03-25T00:00:00Z", rdf.XSDDateTime)
	return &Env{Store: src, Now: func() rdf.Term { return now }, dict: src.Dict(), ctx: context.Background(),
		q: &queryState{randN: 0x9E3779B97F4A7C15}}
}

// freshBNode mints a unique blank node for BNODE().
func (e *Env) freshBNode() rdf.Term {
	e.q.mu.Lock()
	defer e.q.mu.Unlock()
	e.q.bnodeN++
	return rdf.NewBlank("e.b" + strconv.Itoa(e.q.bnodeN))
}

// nextRand returns a deterministic pseudo-random float in [0,1) for RAND().
func (e *Env) nextRand() float64 {
	e.q.mu.Lock()
	defer e.q.mu.Unlock()
	e.q.randN ^= e.q.randN << 13
	e.q.randN ^= e.q.randN >> 7
	e.q.randN ^= e.q.randN << 17
	return float64(e.q.randN>>11) / float64(1<<53)
}

// Eval evaluates a logical operator into a stream of bindings: the batch
// pipeline, decoded at this boundary. The stream closes when the operator
// is exhausted or the context is cancelled.
func Eval(ctx context.Context, op algebra.Operator, env *Env) Stream {
	return batchesToRows(ctx, env, EvalBatch(ctx, op, env))
}

// forExprs returns the env for an operator under ctx that evaluates exprs:
// e itself, or, when they have an EXISTS, a copy whose EXISTS runs stop
// with ctx but open no spans under its trace. It translates their EXISTS
// patterns now, as the operator is built.
func (e *Env) forExprs(ctx context.Context, exprs ...sparql.Expression) *Env {
	found := false
	for _, x := range exprs {
		found = eachExists(x, func(x sparql.ExprExists) { e.existsOp(x) }) || found
	}
	if !found {
		return e
	}
	c := *e
	var cancel context.CancelFunc
	c.ctx, cancel = context.WithCancel(context.Background())
	context.AfterFunc(ctx, cancel)
	return &c
}
