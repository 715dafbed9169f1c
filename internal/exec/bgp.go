package exec

import (
	"context"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/store"
)

// maxBGPBranches bounds how many basic graph patterns a join chain with
// unions inside it may become; a chain that would become more keeps its
// joins.
const maxBGPBranches = 8

// bgpPatterns appends the patterns of op to into, in plan order, when op is
// a pattern or a join chain of nothing else: a basic graph pattern.
func bgpPatterns(op algebra.Operator, into []rdf.Quad) ([]rdf.Quad, bool) {
	switch x := op.(type) {
	case algebra.Pattern:
		return append(into, rdf.Quad{Triple: x.Triple, G: x.Graph}), true
	case algebra.Join:
		if into, ok := bgpPatterns(x.Left, into); ok {
			return bgpPatterns(x.Right, into)
		}
	}
	return nil, false
}

// bgpCount returns how many basic graph patterns op is the union of, when
// op is a pattern, or a join or union of such unions, and 0 otherwise: a
// join distributes over the alternatives of a union, such as the constant
// predicates of a (p1|p2) path.
func bgpCount(op algebra.Operator) int {
	switch x := op.(type) {
	case algebra.Pattern:
		return 1
	case algebra.Join:
		return bgpCount(x.Left) * bgpCount(x.Right)
	case algebra.Union:
		if l, r := bgpCount(x.Left), bgpCount(x.Right); l > 0 && r > 0 {
			return l + r
		}
	}
	return 0
}

// bgpBranches returns the basic graph patterns whose union op is, each a
// pattern or a join chain of patterns in plan order; bgpCount(op) must be
// positive.
func bgpBranches(op algebra.Operator) []algebra.Operator {
	switch x := op.(type) {
	case algebra.Join:
		var out []algebra.Operator
		for _, l := range bgpBranches(x.Left) {
			for _, r := range bgpBranches(x.Right) {
				out = append(out, algebra.Join{Left: l, Right: r})
			}
		}
		return out
	case algebra.Union:
		return append(bgpBranches(x.Left), bgpBranches(x.Right)...)
	}
	return []algebra.Operator{op}
}

// evalBGP runs a join chain of patterns, or a union of such chains, as one
// operator per chain, forwarding their batches as one stream; keep is as
// for store.BGP. It reports false, starting nothing, when op has another
// leaf or is the union of more than maxBGPBranches chains, whose joins
// then stay.
func evalBGP(ctx context.Context, env *Env, op algebra.Operator, keep []string) (BatchStream, bool) {
	scan := func(ctx context.Context, op algebra.Operator, pats []rdf.Quad) BatchStream {
		return tracedBatch(ctx, env, "scan", func() string { return algebra.String(op) }, func(ctx context.Context) BatchStream {
			return batchBGP(ctx, env, op.Vars(), keep, pats)
		})
	}
	switch n := bgpCount(op); {
	case n == 1:
		pats, _ := bgpPatterns(op, nil)
		return scan(ctx, op, pats), true
	case n == 0 || n > maxBGPBranches:
		return nil, false
	}
	return tracedBatch(ctx, env, "union", nil, func(ctx context.Context) BatchStream {
		var ins []BatchStream
		for _, op := range bgpBranches(op) {
			pats, _ := bgpPatterns(op, make([]rdf.Quad, 0, 8))
			ins = append(ins, scan(ctx, op, pats))
		}
		return batchUnion(ctx, ins...)
	}), true
}

// batchBGP evaluates a basic graph pattern as one operator on one
// goroutine: the store's evaluator (store.BGP) joins the patterns over
// positions by the delta rule as the store grows and appends each step's
// solutions straight into the columns of the batches it sends, with
// provenance and the evaluator's indexes charged to the ledger.
func batchBGP(ctx context.Context, env *Env, vars, keep []string, pats []rdf.Quad) BatchStream {
	out := make(chan *Batch, batchChanCap)
	var tally func(rdf.TermID)
	if env.Prov != nil {
		tally = func(src rdf.TermID) { env.Prov.add(env.dict.Decode(src).Value) }
	}
	bgp := env.Store.BGP(vars, keep, pats, tally)
	go func() {
		defer close(out)
		defer bgp.Release()
		w := &bgpWriter{ctx: ctx, env: env, out: out, vars: vars, prov: tally != nil}
		w.Flush = w.flush
		defer func() { putBatch(w.ob) }()
		var charged int64
		defer func() { env.Ledger.Release(resource.Exec, charged) }()
		for bgp.Next(ctx, &w.Rows) {
			if env.Ledger != nil {
				n := bgp.Bytes()
				env.Ledger.Charge(resource.Exec, n-charged)
				charged = n
			}
			if !w.send() {
				return
			}
		}
	}()
	return out
}

// bgpWriter is the Rows a BGP operator's evaluator appends to: the columns
// of batch ob, sent on out when full and after every step.
type bgpWriter struct {
	store.Rows
	ob   *Batch
	ctx  context.Context
	env  *Env
	out  chan<- *Batch
	vars []string
	prov bool
}

// send hands the rows on as ob, when there are any, and leaves none.
func (w *bgpWriter) send() bool {
	if w.N == 0 {
		return true
	}
	b := w.ob
	b.cols, b.prov, b.n = w.Cols, w.Srcs, w.N
	w.ob, w.N, w.Cap = nil, 0, 0
	return sendBatch(w.ctx, w.out, b)
}

// flush sends the rows, when there are any, and starts a batch.
func (w *bgpWriter) flush() bool {
	if !w.send() {
		return false
	}
	w.ob = w.env.getBatch(w.vars, w.prov)
	w.Cols, w.Srcs, w.Cap = w.ob.cols, w.ob.prov, batchCap
	return true
}
