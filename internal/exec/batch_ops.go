package exec

import (
	"context"
	"sync"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

// EvalBatch evaluates a logical operator into a stream of ID batches. It is
// the executor's one dispatcher: every operator of every plan runs here.
func EvalBatch(ctx context.Context, op algebra.Operator, env *Env) BatchStream {
	switch x := op.(type) {
	case algebra.Unit:
		return batchMaterialize(ctx, env, nil, false, func([][]rdf.Binding) []rdf.Binding { return []rdf.Binding{{}} })
	case algebra.Values:
		return batchMaterialize(ctx, env, x.Variables, false, func([][]rdf.Binding) []rdf.Binding { return x.Rows })
	case algebra.Pattern:
		return tracedBatch(ctx, env, "scan", opAttrs(algebra.String(x)), func(ctx context.Context) BatchStream {
			return batchScan(ctx, x, env)
		})
	case algebra.PathPattern:
		return tracedBatch(ctx, env, "path", opAttrs(algebra.String(x)), func(ctx context.Context) BatchStream {
			return batchMaterialize(ctx, env, x.Vars(), true, func([][]rdf.Binding) []rdf.Binding {
				return evalPathSnapshot(env, x)
			})
		})
	case algebra.Join:
		return tracedBatch(ctx, env, "join", nil, func(ctx context.Context) BatchStream {
			return batchJoin(ctx, env, x.Vars(), algebra.SharedVars(x.Left, x.Right), nil, false,
				EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.LeftJoin:
		return tracedBatch(ctx, env, "leftjoin", nil, func(ctx context.Context) BatchStream {
			return batchJoin(ctx, env, x.Vars(), algebra.SharedVars(x.Left, x.Right), x.Filters, true,
				EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.Union:
		return tracedBatch(ctx, env, "union", nil, func(ctx context.Context) BatchStream {
			return batchUnion(ctx, EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.Minus:
		return tracedBatch(ctx, env, "minus", nil, func(ctx context.Context) BatchStream {
			return batchMaterialize(ctx, env, x.Vars(), false, func(in [][]rdf.Binding) []rdf.Binding {
				return minusRows(in[0], in[1])
			}, EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.Filter:
		if exprContainsExists(x.Expr) {
			// EXISTS is non-monotonic: the filter holds its input until the
			// store has closed, so no later-arriving triple can invalidate
			// its answer.
			return batchMaterialize(ctx, env, x.Vars(), true, func(in [][]rdf.Binding) []rdf.Binding {
				return filterRows(env, x.Expr, in[0])
			}, EvalBatch(ctx, x.Input, env))
		}
		return batchFilter(ctx, env, x.Expr, EvalBatch(ctx, x.Input, env))
	case algebra.Extend:
		return batchExtend(ctx, env, x.Var, x.Expr, EvalBatch(ctx, x.Input, env))
	case algebra.Project:
		if len(x.Items) == 0 {
			return EvalBatch(ctx, x.Input, env)
		}
		return batchProject(ctx, env, x.Items, EvalBatch(ctx, x.Input, env))
	case algebra.Distinct:
		return tracedBatch(ctx, env, "distinct", nil, func(ctx context.Context) BatchStream {
			return batchDedup(ctx, env, x.Input.Vars(), true, EvalBatch(ctx, x.Input, env))
		})
	case algebra.Reduced:
		return batchDedup(ctx, env, x.Input.Vars(), false, EvalBatch(ctx, x.Input, env))
	case algebra.OrderBy:
		return tracedBatch(ctx, env, "orderby", nil, func(ctx context.Context) BatchStream {
			return batchMaterialize(ctx, env, x.Vars(), false, func(in [][]rdf.Binding) []rdf.Binding {
				return orderRows(env, x.Conds, in[0])
			}, EvalBatch(ctx, x.Input, env))
		})
	case algebra.Slice:
		return batchSlice(ctx, env, x)
	case algebra.Group:
		return tracedBatch(ctx, env, "group", nil, func(ctx context.Context) BatchStream {
			if vectorizableGroup(x) {
				return batchGroup(ctx, x, env)
			}
			return batchMaterialize(ctx, env, x.Vars(), false, func(in [][]rdf.Binding) []rdf.Binding {
				return groupRows(env, x, in[0])
			}, EvalBatch(ctx, x.Input, env))
		})
	}
	out := make(chan *Batch)
	close(out)
	return out
}

// batchMaterialize is the one operator for the blocking operators the
// pipeline has no streaming form of (MINUS, ORDER BY, property paths, the
// GROUP BY shapes the columnar grouping does not take, FILTER with EXISTS),
// and with no inputs the source for VALUES and Unit. It drains its inputs,
// decoding rows with their provenance and charging them to the ledger while
// held, waits for the store to close when wait is set, runs the reference's
// row function for the operator, and encodes the result into batches over
// vars.
func batchMaterialize(ctx context.Context, env *Env, vars []string, wait bool, fn func(in [][]rdf.Binding) []rdf.Binding, ins ...BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		rows := make([][]rdf.Binding, len(ins))
		var charged int64
		defer func() { env.Ledger.Release(resource.Exec, charged) }()
		for i, in := range ins {
			for b := range in {
				if ctx.Err() == nil {
					for li := 0; li < b.Len(); li++ {
						rows[i] = append(rows[i], decodeRow(env, b, b.Row(li)))
					}
				}
				putBatch(b)
			}
			charged += env.chargeBuffered(rows[i])
		}
		if ctx.Err() != nil || wait && env.Store.WaitClosed(ctx) != nil {
			return
		}
		encodeRows(ctx, env, out, vars, fn(rows))
	}()
	return out
}

// batchSlice applies OFFSET and LIMIT by narrowing selection vectors. Once
// the limit is met it cancels its upstream, which aborts the pattern
// iterators and, through the facade, the traversal itself.
func batchSlice(ctx context.Context, env *Env, s algebra.Slice) BatchStream {
	out := make(chan *Batch, batchChanCap)
	inCtx, cancel := context.WithCancel(ctx)
	in := EvalBatch(inCtx, s.Input, env)
	go func() {
		defer close(out)
		defer discard(in)
		defer cancel()
		skip, left := s.Offset, s.Limit // left < 0: unlimited
		for left != 0 {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				compactSel(b, func(int32) bool {
					switch {
					case skip > 0:
						skip--
						return false
					case left == 0:
						return false
					case left > 0:
						left--
					}
					return true
				})
				if b.Len() == 0 {
					putBatch(b)
				} else if !sendBatch(ctx, out, b) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// exprContainsExists reports whether the expression contains EXISTS.
func exprContainsExists(e sparql.Expression) bool {
	switch x := e.(type) {
	case sparql.ExprExists:
		return true
	case sparql.ExprBinary:
		return exprContainsExists(x.L) || exprContainsExists(x.R)
	case sparql.ExprUnary:
		return exprContainsExists(x.X)
	case sparql.ExprCall:
		for _, a := range x.Args {
			if exprContainsExists(a) {
				return true
			}
		}
	case sparql.ExprIn:
		if exprContainsExists(x.X) {
			return true
		}
		for _, a := range x.List {
			if exprContainsExists(a) {
				return true
			}
		}
	}
	return false
}

// batchScan emits matches of a triple pattern as ID batches straight out of
// the store postings: no term is decoded. Each NextBatch call drains
// whatever the store holds (up to batchCap), so first results keep row
// latency while steady-state flow is batch-granular. A GRAPH term is
// checked against each match's source document: a constant must equal it,
// a variable binds to it.
func batchScan(ctx context.Context, p algebra.Pattern, env *Env) BatchStream {
	out := make(chan *Batch, batchChanCap)
	vars := p.Vars()
	// pos[c] is the position (0=S,1=P,2=O, 3=source document) the c-th
	// variable reads from: its first occurrence, the store having already
	// enforced repeated-variable equality within the triple.
	pos := make([]int, len(vars))
	pats := [4]rdf.Term{p.Triple.S, p.Triple.P, p.Triple.O, p.Graph}
	gcol := -1 // column a GRAPH variable must agree with the source on
	for c, v := range vars {
		for i, t := range pats {
			if t.Kind == rdf.TermVar && t.Value == v {
				pos[c] = i
				break
			}
		}
		if p.Graph.IsVar() && p.Graph.Value == v {
			gcol = c
		}
	}
	graph := !p.Graph.IsZero()
	var gid rdf.TermID
	if graph && gcol < 0 {
		gid = env.dict.Intern(p.Graph)
	}
	go func() {
		defer close(out)
		it := env.Store.Match(p.Triple)
		defer it.Close()
		withProv := env.Prov != nil
		ids := make([]rdf.IDTriple, batchCap)
		var srcs []rdf.TermID
		if withProv || graph {
			srcs = make([]rdf.TermID, batchCap)
		}
		for {
			n, ok := it.NextBatch(ctx, ids, srcs)
			if !ok {
				return
			}
			b := env.getBatch(vars, withProv)
			for c := range b.cols {
				col := b.cols[c]
				switch pos[c] {
				case 0:
					for i := 0; i < n; i++ {
						col = append(col, ids[i].S)
					}
				case 1:
					for i := 0; i < n; i++ {
						col = append(col, ids[i].P)
					}
				case 2:
					for i := 0; i < n; i++ {
						col = append(col, ids[i].O)
					}
				default:
					col = append(col, srcs[:n]...)
				}
				b.cols[c] = col
			}
			b.n = n
			if graph {
				compactSel(b, func(r int32) bool {
					want := gid
					if gcol >= 0 {
						want = b.cols[gcol][r]
					}
					return srcs[r] != rdf.NoTerm && srcs[r] == want
				})
			}
			if withProv {
				for i := 0; i < n; i++ {
					b.prov = append(b.prov, []rdf.TermID{srcs[i]})
				}
				for i := 0; i < b.Len(); i++ {
					env.Prov.add(env.dict.Decode(srcs[b.Row(i)]).Value)
				}
			}
			if b.Len() == 0 {
				putBatch(b)
			} else if !sendBatch(ctx, out, b) {
				return
			}
		}
	}()
	return out
}

// rowReader decodes the columns an expression needs from a batch into a
// reusable scratch binding, so vectorized FILTER/BIND evaluate expressions
// without allocating a binding per row.
type rowReader struct {
	scratch rdf.Binding
	// cols/names are the schema columns the expression reads, resolved
	// against the current batch schema by bind().
	cols  []int
	names []string
	need  map[string]bool // nil: every column
	vars  []string        // schema the cols/names resolution is valid for
}

// newRowReader reads the variables the expressions mention, or every
// column when one contains EXISTS: the whole row is substituted into the
// EXISTS pattern, and a sub-select inside it names only its projection.
func newRowReader(exprs ...sparql.Expression) *rowReader {
	need := map[string]bool{}
	for _, e := range exprs {
		if exprContainsExists(e) {
			return &rowReader{scratch: rdf.Binding{}}
		}
		sparql.ExprVars(e, need)
	}
	return &rowReader{scratch: make(rdf.Binding, len(need)), need: need}
}

// bind resolves the needed variables against a schema.
func (rr *rowReader) bind(vars []string) {
	if sameVars(rr.vars, vars) {
		return
	}
	rr.vars = vars
	rr.cols = rr.cols[:0]
	rr.names = rr.names[:0]
	for c, v := range vars {
		if rr.need == nil || rr.need[v] {
			rr.cols = append(rr.cols, c)
			rr.names = append(rr.names, v)
		}
	}
}

// row materializes physical row r of b into the scratch binding.
func (rr *rowReader) row(env *Env, b *Batch, r int32) rdf.Binding {
	clear(rr.scratch)
	for i, c := range rr.cols {
		if id := b.cols[c][r]; id != rdf.NoTerm {
			rr.scratch[rr.names[i]] = env.dict.Decode(id)
		}
	}
	return rr.scratch
}

// rowOf materializes a row given as one ID per schema column.
func (rr *rowReader) rowOf(env *Env, ids []rdf.TermID) rdf.Binding {
	clear(rr.scratch)
	for i, c := range rr.cols {
		if id := ids[c]; id != rdf.NoTerm {
			rr.scratch[rr.names[i]] = env.dict.Decode(id)
		}
	}
	return rr.scratch
}

// compactSel narrows a batch to the rows for which keep returns true,
// rewriting the selection vector in place (reads of sel[i] always precede
// the write of slot j <= i, so aliasing the slab is safe).
func compactSel(b *Batch, keep func(r int32) bool) {
	if b.sel == nil {
		b.sel = b.selSlab()
		for r := int32(0); int(r) < b.n; r++ {
			if keep(r) {
				b.sel = append(b.sel, r)
			}
		}
		return
	}
	kept := b.sel[:0]
	for _, r := range b.sel {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	b.sel = kept
}

// batchFilter applies a FILTER vectorized: per batch it evaluates the
// expression over the live rows and narrows the selection vector; the batch
// itself (columns, provenance) is forwarded untouched. An evaluation error
// drops the row, never the stream. A filter with EXISTS does not come here
// (see EvalBatch).
func batchFilter(ctx context.Context, env *Env, expr sparql.Expression, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(in)
		rr := newRowReader(expr)
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				rr.bind(b.vars)
				compactSel(b, func(r int32) bool { return holds(env, rr.row(env, b, r), expr) })
				if b.Len() == 0 {
					putBatch(b)
				} else if !sendBatch(ctx, out, b) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// batchExtend applies BIND vectorized: it appends (or updates) the target
// column in place. Row-path semantics are preserved — an evaluation error
// leaves the variable as it was, a conflicting rebind drops the row.
func batchExtend(ctx context.Context, env *Env, name string, expr sparql.Expression, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(in)
		rr := newRowReader(expr)
		var extVars []string // cached extended schema, keyed by input schema
		var forVars []string
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				rr.bind(b.vars)
				c := b.col(name)
				if c < 0 {
					// Fresh variable: extend the schema by one column.
					if !sameVars(forVars, b.vars) {
						forVars = b.vars
						extVars = append(append(make([]string, 0, len(b.vars)+1), b.vars...), name)
					}
					b.vars = extVars
					c = len(b.cols)
					b.cols = append(b.cols, b.colSlab())
					col := b.cols[c]
					for r := 0; r < b.n; r++ {
						col = append(col, rdf.NoTerm)
					}
					b.cols[c] = col
					for i := 0; i < b.Len(); i++ {
						r := b.Row(i)
						if v, err := evalExpr(env, expr, rr.row(env, b, r)); err == nil {
							col[r] = env.dict.Intern(v)
						}
					}
				} else {
					// Variable may already be bound: equal value keeps the
					// row, different value drops it, unbound gets set;
					// evaluation errors keep the row unchanged.
					col := b.cols[c]
					compactSel(b, func(r int32) bool {
						v, err := evalExpr(env, expr, rr.row(env, b, r))
						if err != nil {
							return true
						}
						id := env.dict.Intern(v)
						switch col[r] {
						case rdf.NoTerm:
							col[r] = id
							return true
						case id:
							return true
						default:
							return false
						}
					})
				}
				if b.Len() == 0 {
					putBatch(b)
					continue
				}
				if !sendBatch(ctx, out, b) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// batchProject narrows batches to the projected variables by gathering the
// kept columns into a fresh batch (whole-slab copies when no selection
// vector is set), then fills each expression item's column by evaluating it
// over the input row (an evaluation error leaves it unbound). SELECT * is a
// passthrough in EvalBatch.
func batchProject(ctx context.Context, env *Env, items []sparql.SelectItem, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	vars := make([]string, len(items))
	var exprs []sparql.Expression
	for i, item := range items {
		vars[i] = item.Var
		if item.Expr != nil {
			exprs = append(exprs, item.Expr)
		}
	}
	go func() {
		defer close(out)
		defer discard(in)
		var rr *rowReader
		if exprs != nil {
			rr = newRowReader(exprs...)
		}
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				src := schemaMap(b.vars, vars)
				for c, item := range items {
					if item.Expr != nil {
						src[c] = -1
					}
				}
				nb := env.getBatch(vars, b.prov != nil)
				if b.sel == nil {
					for c, j := range src {
						if j >= 0 {
							nb.cols[c] = append(nb.cols[c], b.cols[j]...)
						} else {
							for r := 0; r < b.n; r++ {
								nb.cols[c] = append(nb.cols[c], rdf.NoTerm)
							}
						}
					}
					if nb.prov != nil {
						nb.prov = append(nb.prov, b.prov[:b.n]...)
					}
					nb.n = b.n
				} else {
					for c, j := range src {
						col := nb.cols[c]
						for _, r := range b.sel {
							if j >= 0 {
								col = append(col, b.cols[j][r])
							} else {
								col = append(col, rdf.NoTerm)
							}
						}
						nb.cols[c] = col
					}
					if nb.prov != nil {
						for _, r := range b.sel {
							nb.prov = append(nb.prov, b.prov[r])
						}
					}
					nb.n = len(b.sel)
				}
				if exprs != nil {
					rr.bind(b.vars)
					for i := 0; i < b.Len(); i++ {
						row := rr.row(env, b, b.Row(i))
						for c, item := range items {
							if item.Expr == nil {
								continue
							}
							if v, err := evalExpr(env, item.Expr, row); err == nil {
								nb.cols[c][i] = env.dict.Intern(v)
							}
						}
					}
				}
				putBatch(b)
				if nb.Len() == 0 {
					putBatch(nb)
					continue
				}
				if !sendBatch(ctx, out, nb) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// batchDedup implements DISTINCT (global seen-set) and REDUCED (consecutive
// duplicates only) over batches by narrowing the selection vector; rows are
// keyed by their IDs over the input operator's variable set.
func batchDedup(ctx context.Context, env *Env, keyVars []string, distinct bool, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(in)
		var seen map[idKey]bool
		if distinct {
			seen = map[idKey]bool{}
		}
		var last idKey
		first := true
		ids := make([]rdf.TermID, len(keyVars))
		var cols []int
		var forVars []string
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				if !sameVars(forVars, b.vars) {
					forVars = b.vars
					cols = schemaMap(b.vars, keyVars)
				}
				compactSel(b, func(r int32) bool {
					for i, c := range cols {
						if c >= 0 {
							ids[i] = b.cols[c][r]
						} else {
							ids[i] = rdf.NoTerm
						}
					}
					key := idKeyOf(ids)
					if distinct {
						if seen[key] {
							return false
						}
						seen[key] = true
						return true
					}
					if !first && key == last {
						return false
					}
					first = false
					last = key
					return true
				})
				if b.Len() == 0 {
					putBatch(b)
					continue
				}
				if !sendBatch(ctx, out, b) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// batchUnion forwards the batches of both operands into one stream. Batches
// keep their own schemas; downstream operators resolve schemas per batch.
func batchUnion(ctx context.Context, left, right BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	var wg sync.WaitGroup
	forward := func(in BatchStream) {
		defer wg.Done()
		defer discard(in)
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				if !sendBatch(ctx, out, b) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}
	wg.Add(2)
	go forward(left)
	go forward(right)
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
