package exec

import (
	"slices"
	"sort"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// Reference evaluates op over the store's current contents and returns all
// its solutions, materialising each operator's result before its parent
// runs: no streaming, gating, tracing or ledger. Over a closed store that
// is the plain SPARQL semantics the pipeline must reproduce, so the
// differential oracle and the property tests run it; production never
// does. Every operator has its own implementation here, EXISTS included
// (it runs its pattern with Reference). The pipeline shares expression
// evaluation, the aggregate folds, EXISTS substitution and, until paths
// stream, evalPathSnapshot.
func Reference(op algebra.Operator, env *Env) []rdf.Binding {
	if !env.oracle {
		c := *env
		c.oracle = true
		env = &c
	}
	switch x := op.(type) {
	case algebra.Unit:
		return []rdf.Binding{{}}
	case algebra.Values:
		return slices.Clone(x.Rows) // ORDER BY sorts its input in place
	case algebra.Pattern:
		var out []rdf.Binding
		for _, t := range env.Store.MatchNow(x.Triple) {
			b, ok := rdf.NewBinding().MatchPattern(x.Triple, t)
			if ok {
				b, ok = applyGraphConstraint(env, x.Graph, t, b)
			}
			if ok {
				out = append(out, b)
			}
		}
		return out
	case algebra.PathPattern:
		return evalPathSnapshot(env, x)
	case algebra.Join:
		var out []rdf.Binding
		hashJoin(Reference(x.Left, env), Reference(x.Right, env), algebra.SharedVars(x.Left, x.Right),
			func(_ int, m rdf.Binding) { out = append(out, m) })
		return out
	case algebra.LeftJoin:
		ls := Reference(x.Left, env)
		matched := make([]bool, len(ls))
		var out []rdf.Binding
		hashJoin(ls, Reference(x.Right, env), algebra.SharedVars(x.Left, x.Right), func(i int, m rdf.Binding) {
			if holds(env, m, x.Filters...) {
				matched[i] = true
				out = append(out, m)
			}
		})
		for i, l := range ls {
			if !matched[i] {
				out = append(out, l)
			}
		}
		return out
	case algebra.Union:
		return append(Reference(x.Left, env), Reference(x.Right, env)...)
	case algebra.Minus:
		return minusRows(Reference(x.Left, env), Reference(x.Right, env))
	case algebra.Filter:
		var out []rdf.Binding
		for _, b := range Reference(x.Input, env) {
			if holds(env, b, x.Expr) {
				out = append(out, b)
			}
		}
		return out
	case algebra.Extend:
		var out []rdf.Binding
		for _, b := range Reference(x.Input, env) {
			// An evaluation error leaves the variable unbound (SPARQL BIND);
			// a conflicting rebind drops the solution.
			if v, err := evalExpr(env, x.Expr, b); err == nil {
				var ok bool
				if b, ok = b.Extend(x.Var, v); !ok {
					continue
				}
			}
			out = append(out, b)
		}
		return out
	case algebra.Project:
		rows := Reference(x.Input, env)
		for i, b := range rows {
			rows[i] = b.Project(x.Names)
		}
		return rows
	case algebra.Distinct:
		return dedupRows(Reference(x.Input, env), x.Input.Vars(), true)
	case algebra.Reduced:
		return dedupRows(Reference(x.Input, env), x.Input.Vars(), false)
	case algebra.OrderBy:
		return orderRows(env, x.Conds, Reference(x.Input, env))
	case algebra.Slice:
		all := Reference(x.Input, env)
		all = all[min(x.Offset, len(all)):]
		if x.Limit >= 0 && x.Limit < len(all) {
			all = all[:x.Limit]
		}
		return all
	case algebra.Group:
		return groupRows(env, x, Reference(x.Input, env))
	}
	return nil
}

// hashJoin calls emit(i, merged) for every compatible pair of left row i
// and a right row. Right rows binding every shared variable are hashed on
// them; rows leaving one unbound (below OPTIONAL or VALUES) go to a list
// every probe scans, as in the pipeline's join arena.
func hashJoin(ls, rs []rdf.Binding, shared []string, emit func(int, rdf.Binding)) {
	exact := map[string][]rdf.Binding{}
	var partial []rdf.Binding
	for _, r := range rs {
		if bindsAll(r, shared) {
			k := r.Key(shared)
			exact[k] = append(exact[k], r)
		} else {
			partial = append(partial, r)
		}
	}
	for i, l := range ls {
		probe := func(rs []rdf.Binding) {
			for _, r := range rs {
				if m, ok := l.Merge(r); ok {
					emit(i, m)
				}
			}
		}
		if bindsAll(l, shared) {
			probe(exact[l.Key(shared)])
			probe(partial)
		} else {
			probe(rs)
		}
	}
}

// dedupRows keeps the first of every group of rows equal over vars
// (DISTINCT), or only drops a row equal to its predecessor (REDUCED).
func dedupRows(rows []rdf.Binding, vars []string, distinct bool) []rdf.Binding {
	seen := map[string]bool{}
	last := ""
	var out []rdf.Binding
	for i, b := range rows {
		k := b.Key(vars)
		if distinct && seen[k] || !distinct && i > 0 && k == last {
			continue
		}
		seen[k], last = distinct, k
		out = append(out, b)
	}
	return out
}

func bindsAll(b rdf.Binding, vars []string) bool {
	for _, v := range vars {
		if !b.Has(v) {
			return false
		}
	}
	return true
}

// holds reports whether every expression has a true effective boolean
// value under b; an evaluation error counts as false (FILTER semantics).
func holds(env *Env, b rdf.Binding, exprs ...sparql.Expression) bool {
	for _, e := range exprs {
		v, err := evalExpr(env, e, b)
		if err != nil {
			return false
		}
		if ok, err := v.EffectiveBooleanValue(); err != nil || !ok {
			return false
		}
	}
	return true
}

// applyGraphConstraint enforces a GRAPH term against the provenance of a
// matched triple: a constant graph must equal the source document, a
// variable graph binds to it.
func applyGraphConstraint(env *Env, graph rdf.Term, t rdf.Triple, b rdf.Binding) (rdf.Binding, bool) {
	if graph.IsZero() {
		return b, true
	}
	src, ok := env.Store.Source(t)
	if !ok {
		return nil, false
	}
	if graph.IsVar() {
		return b.Extend(graph.Value, src)
	}
	if graph != src {
		return nil, false
	}
	return b, true
}

// minusRows is SPARQL MINUS over materialised operands: a left row is
// removed when some right row is compatible with it and shares at least
// one bound variable (SPARQL §8.3.3). Provenance pseudo-variables are not
// part of the solution domain and never create overlap.
func minusRows(lefts, rights []rdf.Binding) []rdf.Binding {
	var out []rdf.Binding
	for _, l := range lefts {
		excluded := false
		for _, r := range rights {
			sharesDom := false
			for v := range r {
				if !rdf.IsProvVar(v) && l.Has(v) {
					sharesDom = true
					break
				}
			}
			if sharesDom && l.Compatible(r) {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, l)
		}
	}
	return out
}

// orderRows sorts rows stably by the ORDER BY conditions. Unbound values
// and evaluation errors sort first (SPARQL: unbound < everything).
func orderRows(env *Env, conds []sparql.OrderCondition, rows []rdf.Binding) []rdf.Binding {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range conds {
			vi, erri := evalExpr(env, c.Expr, rows[i])
			vj, errj := evalExpr(env, c.Expr, rows[j])
			if erri != nil {
				vi = rdf.Term{}
			}
			if errj != nil {
				vj = rdf.Term{}
			}
			cmp := orderCompare(vi, vj)
			if cmp == 0 {
				continue
			}
			if c.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return rows
}
