// Package exec implements the physical, pipelined execution of logical
// plans over the growing triple source. EvalBatch is the one dispatcher:
// every operator is a goroutine exchanging batches of dictionary term IDs
// over channels, and Eval decodes the root's batches into bindings.
// Monotonic operators (pattern scans, symmetric hash joins and OPTIONAL's
// matches, unions, filters, binds, projections, distinct, LIMIT) emit
// solutions incrementally while traversal is still dereferencing documents,
// which is what lets first results appear long before the link queue
// drains. Blocking operators (ORDER BY, GROUP BY, MINUS, transitive property
// paths, EXISTS filters, the bare-row phase of OPTIONAL) wait for their
// inputs to end or the store to close.
//
// Reference is the materialising evaluator over a closed store: EXISTS runs
// it, and it is the oracle the pipeline is tested against.
package exec

import (
	"context"
	"strconv"
	"sync"

	"ltqp/internal/algebra"
	"ltqp/internal/obs"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
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
	// Prov, when non-nil, makes pattern scans annotate every solution with
	// the source document of the matched triple, so results carry the set
	// of documents whose triples joined to produce them. Nil (the default)
	// disables provenance at zero cost.
	Prov *Prov
	// Events, when non-nil, publishes per-operator stage_started and
	// stage_finished events (with row counts) to the owning query's event
	// stream while a subscriber is attached. Nil or audience-less events
	// cost one atomic load per operator, nothing per solution.
	Events *obs.Emitter
	// Workers is the morsel worker-pool size for parallel join probes and
	// grouping; 0 means GOMAXPROCS.
	Workers int
	// Ledger, when non-nil, is charged (under resource.Exec) for the
	// memory execution retains: batch slab capacity in flight, join and
	// grouping arenas, and rows buffered by blocking operators. Nil
	// disables accounting at zero cost.
	Ledger *resource.Ledger

	// dict is the engine term dictionary (shared with Store); hash-keyed
	// operators (join, DISTINCT, OPTIONAL bookkeeping) key on packed term
	// IDs from it instead of rendering lexical strings.
	dict *rdf.Dict

	mu     sync.Mutex
	bnodeN int
	randN  uint64
}

// NewEnv returns an environment over the given source with a fixed NOW()
// value.
func NewEnv(src *store.Store) *Env {
	now := rdf.NewTypedLiteral("2024-03-25T00:00:00Z", rdf.XSDDateTime)
	return &Env{Store: src, Now: func() rdf.Term { return now }, dict: src.Dict(), randN: 0x9E3779B97F4A7C15}
}

// freshBNode mints a unique blank node for BNODE().
func (e *Env) freshBNode() rdf.Term {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bnodeN++
	return rdf.NewBlank("e.b" + strconv.Itoa(e.bnodeN))
}

// nextRand returns a deterministic pseudo-random float in [0,1) for RAND().
func (e *Env) nextRand() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.randN ^= e.randN << 13
	e.randN ^= e.randN >> 7
	e.randN ^= e.randN << 17
	return float64(e.randN>>11) / float64(1<<53)
}

// Eval evaluates a logical operator into a stream of bindings: the batch
// pipeline, decoded at this boundary. The stream closes when the operator
// is exhausted or the context is cancelled.
func Eval(ctx context.Context, op algebra.Operator, env *Env) Stream {
	return batchesToRows(ctx, env, EvalBatch(ctx, op, env))
}

// chargeBuffered bills the environment's ledger (resource.Exec) for rows a
// blocking operator has materialized — an estimated map-plus-entries
// footprint per binding. It returns the charged amount, which the caller
// releases when the buffer is dropped. Nil env or ledger charges nothing.
func (e *Env) chargeBuffered(rows []rdf.Binding) int64 {
	if e == nil || e.Ledger == nil || len(rows) == 0 {
		return 0
	}
	var n int64
	for _, b := range rows {
		n += 64 + int64(len(b))*96
	}
	e.Ledger.Charge(resource.Exec, n)
	return n
}
