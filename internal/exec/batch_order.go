package exec

import (
	"context"
	"slices"
	"sort"
	"unsafe"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

const valueBytes = int64(unsafe.Sizeof(value{})) // ledger cost of a sort key

// batchOrderBy is ORDER BY on ID columns: it drains its input into ID
// columns over vars, parses each row's sort keys once, stably sorts a
// permutation of row indexes and emits ID batches.
func batchOrderBy(ctx context.Context, env *Env, vars []string, conds []sparql.OrderCondition, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	nc := len(conds)
	keyCol := make([]int, nc) // the column of a variable key, -1 for an expression
	var exprs []sparql.Expression
	for i, c := range conds {
		keyCol[i] = -1
		if v, ok := c.Expr.(sparql.ExprVar); ok {
			keyCol[i] = slices.Index(vars, v.Name)
		}
		if keyCol[i] < 0 {
			exprs = append(exprs, c.Expr)
		}
	}
	env = env.forExprs(ctx, exprs...)
	go func() {
		defer close(out)
		withProv := env.Prov != nil
		// Row r is held as row r%batchCap of held[r/batchCap], a pooled
		// batch, so a large input grows without copying.
		var held []*Batch
		keyRowBytes := int64(nc)*valueBytes + 4 // keys and a permutation entry
		n := 0
		defer func() {
			for _, b := range held {
				putBatch(b)
			}
			env.Ledger.Release(resource.Exec, int64(n)*keyRowBytes)
		}()
		var cmap []int
		var forVars []string
		for b := range in {
			if ctx.Err() != nil {
				putBatch(b)
				continue
			}
			if cmap == nil || !sameVars(forVars, b.vars) {
				forVars, cmap = b.vars, schemaMap(b.vars, vars)
			}
			for i := 0; i < b.Len(); {
				if n%batchCap == 0 {
					held = append(held, env.getBatch(vars, withProv))
				}
				h := held[len(held)-1]
				m := min(b.Len()-i, batchCap-h.n)
				h.prov = appendLive(h.cols, h.prov, withProv, b, cmap, i, i+m)
				h.n, n, i = h.n+m, n+m, i+m
			}
			env.Ledger.Charge(resource.Exec, int64(b.Len())*keyRowBytes)
			putBatch(b)
		}
		if ctx.Err() != nil {
			return
		}

		// keys[h][i*nc+c] is the parsed key of condition c for row i of held[h].
		keys := make([][]value, len(held))
		rr := newRowReader(exprs...)
		rr.bind(vars)
		for hi, h := range held {
			kc := make([]value, 0, h.n*nc)
			for r := 0; r < h.n; r++ {
				for ci, c := range conds {
					var t rdf.Term
					if j := keyCol[ci]; j >= 0 {
						t = env.dict.Decode(h.cols[j][r])
					} else if v, err := evalExpr(env, c.Expr, rr.row(env, h, int32(r))); err == nil {
						t = v
					}
					kc = append(kc, parseValue(t))
				}
			}
			keys[hi] = kc
		}

		compareRows := func(a, b int32) int {
			ka := keys[a/batchCap][int(a%batchCap)*nc:]
			kb := keys[b/batchCap][int(b%batchCap)*nc:]
			for i, c := range conds {
				if d := orderParsed(&ka[i], &kb[i]); d != 0 {
					if c.Desc {
						return -d
					}
					return d
				}
			}
			return 0
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		// sort.SliceStable, as in the reference's orderRows: the literal
		// order is not transitive across types (9 < 10 < "9" < 9), and then
		// the result depends on the algorithm.
		sort.SliceStable(perm, func(i, j int) bool { return compareRows(perm[i], perm[j]) < 0 })

		all := schemaMap(vars, vars)
		var b *Batch
		for _, r := range perm {
			if b == nil {
				b = env.getBatch(vars, withProv)
			}
			hr := int(r % batchCap)
			b.prov = appendLive(b.cols, b.prov, withProv, held[r/batchCap], all, hr, hr+1)
			if b.n++; b.n == batchCap {
				if !sendBatch(ctx, out, b) {
					return
				}
				b = nil
			}
		}
		if b != nil {
			sendBatch(ctx, out, b)
		}
	}()
	return out
}
