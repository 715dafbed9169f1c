package exec

import (
	"context"
	"slices"
	"sync"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// EvalBatch evaluates a logical operator into a stream of ID batches. It is
// the executor's one dispatcher: every operator of every plan runs here.
func EvalBatch(ctx context.Context, op algebra.Operator, env *Env) BatchStream {
	return evalBatch(ctx, op, env, nil)
}

// evalBatch is EvalBatch for a consumer that, when keep is not nil, reads
// only the variables in keep and under set semantics: it needs every
// distinct combination of their values, not every solution. DISTINCT sets
// it; a projection, a filter and a union pass it on, widened by what they
// read themselves, and a basic graph pattern uses it to skip partial rows
// that could only repeat such a combination. Every other operator evaluates
// its inputs in full.
func evalBatch(ctx context.Context, op algebra.Operator, env *Env, keep []string) BatchStream {
	switch x := op.(type) {
	case algebra.Unit:
		return batchMaterialize(ctx, env, nil, false, func() []rdf.Binding { return []rdf.Binding{{}} })
	case algebra.Values:
		return batchMaterialize(ctx, env, x.Variables, false, func() []rdf.Binding { return x.Rows })
	case algebra.Pattern, algebra.Join:
		if s, ok := evalBGP(ctx, env, op, keep); ok {
			return s
		}
		return tracedBatch(ctx, env, "join", nil, func(ctx context.Context) BatchStream {
			j := op.(algebra.Join)
			return batchJoin(ctx, env, j.Vars(), algebra.SharedVars(j.Left, j.Right), nil, innerJoin,
				EvalBatch(ctx, j.Left, env), EvalBatch(ctx, j.Right, env))
		})
	case algebra.PathPattern:
		return tracedBatch(ctx, env, "path", func() string { return algebra.String(x) }, func(ctx context.Context) BatchStream {
			return batchMaterialize(ctx, env, x.Vars(), true, func() []rdf.Binding { return evalPathSnapshot(env, x) })
		})
	case algebra.LeftJoin:
		return tracedBatch(ctx, env, "leftjoin", nil, func(ctx context.Context) BatchStream {
			return batchJoin(ctx, env, x.Vars(), algebra.SharedVars(x.Left, x.Right), x.Filters, leftJoin,
				EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.Union:
		return tracedBatch(ctx, env, "union", nil, func(ctx context.Context) BatchStream {
			return batchUnion(ctx, evalBatch(ctx, x.Left, env, keep), evalBatch(ctx, x.Right, env, keep))
		})
	case algebra.Minus:
		shared := algebra.SharedVars(x.Left, x.Right)
		if len(shared) == 0 { // no right row can share a variable with a left row (§18.5)
			return EvalBatch(ctx, x.Left, env)
		}
		return tracedBatch(ctx, env, "minus", nil, func(ctx context.Context) BatchStream {
			return batchJoin(ctx, env, x.Vars(), shared, nil, antiJoin,
				EvalBatch(ctx, x.Left, env), EvalBatch(ctx, x.Right, env))
		})
	case algebra.Filter:
		if eachExists(x.Expr, nil) {
			// The substituted pattern reads the whole row.
			keep = nil
		}
		if keep != nil {
			vars := map[string]bool{}
			sparql.ExprVars(x.Expr, vars)
			for v := range vars {
				if !slices.Contains(keep, v) {
					keep = append(slices.Clip(keep), v)
				}
			}
		}
		return batchFilter(ctx, env, x.Expr, evalBatch(ctx, x.Input, env, keep))
	case algebra.Extend:
		return batchExtend(ctx, env, x.Var, x.Expr, EvalBatch(ctx, x.Input, env))
	case algebra.Project:
		if keep != nil {
			keep = x.Names
		}
		return batchProject(ctx, x.Names, evalBatch(ctx, x.Input, env, keep))
	case algebra.Distinct:
		return tracedBatch(ctx, env, "distinct", nil, func(ctx context.Context) BatchStream {
			return batchDedup(ctx, env, x.Input.Vars(), true, evalBatch(ctx, x.Input, env, x.Input.Vars()))
		})
	case algebra.Reduced:
		return batchDedup(ctx, env, x.Input.Vars(), false, EvalBatch(ctx, x.Input, env))
	case algebra.OrderBy:
		return tracedBatch(ctx, env, "orderby", nil, func(ctx context.Context) BatchStream {
			return batchOrderBy(ctx, env, x.Vars(), x.Conds, EvalBatch(ctx, x.Input, env))
		})
	case algebra.Slice:
		return batchSlice(ctx, env, x)
	case algebra.Group:
		return tracedBatch(ctx, env, "group", nil, func(ctx context.Context) BatchStream {
			return batchGroup(ctx, x, env)
		})
	}
	out := make(chan *Batch)
	close(out)
	return out
}

// batchMaterialize is the row source for VALUES, Unit and property paths:
// it waits for the store to close when wait is set, then interns rows()
// into batches over vars (an absent variable is NoTerm), which carry no
// provenance.
func batchMaterialize(ctx context.Context, env *Env, vars []string, wait bool, rows func() []rdf.Binding) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		if wait && env.Store.WaitClosed(ctx) != nil {
			return
		}
		var b *Batch
		for _, row := range rows() {
			if b == nil {
				b = env.getBatch(vars, false)
			}
			for c, v := range vars {
				var id rdf.TermID
				if t, ok := row[v]; ok {
					id = env.dict.Intern(t)
				}
				b.cols[c] = append(b.cols[c], id)
			}
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

// eachExists calls fn, when not nil, on every EXISTS in e outside another
// EXISTS's pattern, and reports whether there is one.
func eachExists(e sparql.Expression, fn func(sparql.ExprExists)) bool {
	var args []sparql.Expression
	switch x := e.(type) {
	case sparql.ExprExists:
		if fn != nil {
			fn(x)
		}
		return true
	case sparql.ExprBinary:
		args = []sparql.Expression{x.L, x.R}
	case sparql.ExprUnary:
		args = []sparql.Expression{x.X}
	case sparql.ExprCall:
		args = x.Args
	case sparql.ExprIn:
		args = append([]sparql.Expression{x.X}, x.List...)
	}
	found := false
	for _, a := range args {
		found = eachExists(a, fn) || found
	}
	return found
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
		if eachExists(e, nil) {
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
// drops the row, never the stream.
func batchFilter(ctx context.Context, env *Env, expr sparql.Expression, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	env = env.forExprs(ctx, expr)
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
	env = env.forExprs(ctx, expr)
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

// batchProject narrows batches to vars in place: it moves the kept column
// slabs to the front in the projection's order, parks the dropped ones past
// len(cols), where the pool finds them, and gives an absent variable a
// NoTerm column and a variable named twice a copy of its column.
func batchProject(ctx context.Context, vars []string, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(in)
		var held [8][]rdf.TermID // the input's slabs, on the stack for most schemas
		slabs := held[:0]
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				slabs = append(slabs[:0], b.cols[:cap(b.cols)]...)
				src := schemaMap(b.vars, vars)
				b.cols = b.cols[:0]
				for i, j := range src {
					switch first := slices.Index(src, j); {
					case j < 0:
						b.cols = append(b.cols, make([]rdf.TermID, b.n))
					case first < i:
						b.cols = append(b.cols, slices.Clone(b.cols[first]))
					default:
						b.cols, slabs[j] = append(b.cols, slabs[j]), nil
					}
				}
				for _, s := range slabs {
					if s != nil {
						b.cols = append(b.cols, s)
					}
				}
				clear(b.cols[len(b.cols):cap(b.cols)]) // no slab twice
				b.cols, b.vars = b.cols[:len(vars)], vars
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

// batchDedup implements DISTINCT (global seen-set) and REDUCED (consecutive
// duplicates only) over batches by narrowing the selection vector; rows are
// keyed by their IDs over the input operator's variable set.
func batchDedup(ctx context.Context, env *Env, keyVars []string, distinct bool, in BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(in)
		var seen idTable
		var narrow keySet
		first := true
		ids := make([]rdf.TermID, len(keyVars))
		var last []rdf.TermID
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
					if distinct && len(ids) <= 2 {
						return narrow.add(idKeyOf(ids).packed)
					}
					if distinct {
						_, fresh := seen.slot(ids)
						return fresh
					}
					if !first && slices.Equal(ids, last) {
						return false
					}
					first = false
					last = append(last[:0], ids...)
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

// batchUnion forwards the batches of its operands into one stream. Batches
// keep their own schemas; downstream operators resolve schemas per batch.
func batchUnion(ctx context.Context, ins ...BatchStream) BatchStream {
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
	wg.Add(len(ins))
	for _, in := range ins {
		go forward(in)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
