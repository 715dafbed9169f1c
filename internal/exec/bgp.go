package exec

import (
	"context"
	"slices"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
)

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

// batchBGP evaluates a basic graph pattern as one operator on one
// goroutine: the store's evaluator (store.BGP) joins the patterns over
// positions by the delta rule as the store grows, and each step's solutions
// leave as batches over vars, with provenance and the evaluator's indexes
// charged to the ledger.
func batchBGP(ctx context.Context, env *Env, vars []string, pats []rdf.Quad) BatchStream {
	out := make(chan *Batch, batchChanCap)
	var tally func(rdf.TermID)
	if env.Prov != nil {
		tally = func(src rdf.TermID) { env.Prov.add(env.dict.Decode(src).Value) }
	}
	bgp := env.Store.BGP(vars, pats, tally)
	go func() {
		defer close(out)
		defer bgp.Release()
		var ob *Batch
		defer func() { putBatch(ob) }()
		var charged int64
		defer func() { env.Ledger.Release(resource.Exec, charged) }()
		emit := func(row, srcs []rdf.TermID) bool {
			if ob == nil {
				ob = env.getBatch(vars, tally != nil)
			}
			if srcs != nil {
				srcs = slices.Clone(srcs)
			}
			if ob.appendRow(row, srcs); ob.n < batchCap {
				return true
			}
			b := ob
			ob = nil
			return sendBatch(ctx, out, b)
		}
		for bgp.Next(ctx, emit) {
			if env.Ledger != nil {
				n := bgp.Bytes()
				env.Ledger.Charge(resource.Exec, n-charged)
				charged = n
			}
			if b := ob; b != nil {
				ob = nil
				if !sendBatch(ctx, out, b) {
					return
				}
			}
		}
	}()
	return out
}
