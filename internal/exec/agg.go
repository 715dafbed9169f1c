package exec

import (
	"strconv"
	"strings"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// groupRows implements GROUP BY with aggregate projection and HAVING over
// materialised rows. It is the reference's Group and the pipeline's for
// the shapes the columnar grouping does not take; either way grouping is
// blocking, since a group over a still-growing source would be retractable.
func groupRows(env *Env, g algebra.Group, rows []rdf.Binding) []rdf.Binding {
	type grp struct {
		key  rdf.Binding
		rows []rdf.Binding
	}
	groups := map[string]*grp{}
	var order []string
	for _, row := range rows {
		key := rdf.NewBinding()
		for _, c := range g.By {
			switch {
			case c.Expr == nil:
				if t, ok := row.Get(c.Var); ok {
					key[c.Var] = t
				}
			default:
				if v, err := evalExpr(env, c.Expr, row); err == nil {
					if c.Var != "" {
						key[c.Var] = v
					} else {
						// Unnamed expression keys participate in
						// grouping via a synthetic name.
						key["__groupkey"+strconv.Itoa(len(key))] = v
					}
				}
			}
		}
		ks := key.Key(key.Vars())
		gr, ok := groups[ks]
		if !ok {
			gr = &grp{key: key}
			groups[ks] = gr
			order = append(order, ks)
		}
		gr.rows = append(gr.rows, row)
	}
	// Implicit single group for aggregate queries without GROUP BY.
	if len(groups) == 0 && len(g.By) == 0 {
		groups[""] = &grp{key: rdf.NewBinding()}
		order = append(order, "")
	}

	var out []rdf.Binding
	for _, ks := range order {
		gr := groups[ks]
		result := gr.key.Copy()
		if env.Prov != nil {
			// An aggregate row descends from every row of its group:
			// its provenance is the union of theirs.
			for _, row := range gr.rows {
				for k, v := range row {
					if rdf.IsProvVar(k) {
						result[k] = v
					}
				}
			}
		}
		for _, item := range g.Items {
			if item.Expr == nil {
				// Plain variable: must be a group key; already present.
				continue
			}
			if v, err := evalAggExpr(env, item.Expr, gr.key, gr.rows); err == nil {
				result[item.Var] = v
			}
		}
		havingOK := true
		for _, h := range g.Having {
			v, err := evalAggExpr(env, h, result, gr.rows)
			if err != nil {
				havingOK = false
				break
			}
			ok, err := v.EffectiveBooleanValue()
			if err != nil || !ok {
				havingOK = false
				break
			}
		}
		if havingOK {
			out = append(out, result)
		}
	}
	return out
}

// evalAggExpr evaluates an expression that may contain aggregate calls:
// aggregates are computed over the group rows, everything else over the
// group-key binding.
func evalAggExpr(env *Env, e sparql.Expression, key rdf.Binding, rows []rdf.Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case sparql.ExprCall:
		if x.IsAggregate() {
			return evalAggregate(env, x, rows)
		}
		// Non-aggregate call: rebuild with recursively evaluated args.
		args := make([]rdf.Term, len(x.Args))
		for i, a := range x.Args {
			v, err := evalAggExpr(env, a, key, rows)
			if err != nil {
				return rdf.Term{}, err
			}
			args[i] = v
		}
		return evalEagerCall(env, x.Func, args)
	case sparql.ExprBinary:
		if !sparql.HasAggregates(x) {
			return evalExpr(env, x, key)
		}
		l, err := evalAggExpr(env, x.L, key, rows)
		if err != nil {
			return rdf.Term{}, err
		}
		r, err := evalAggExpr(env, x.R, key, rows)
		if err != nil {
			return rdf.Term{}, err
		}
		return evalBinary(env, sparql.ExprBinary{Op: x.Op, L: sparql.ExprTerm{Term: l}, R: sparql.ExprTerm{Term: r}}, key)
	case sparql.ExprUnary:
		if !sparql.HasAggregates(x) {
			return evalExpr(env, x, key)
		}
		v, err := evalAggExpr(env, x.X, key, rows)
		if err != nil {
			return rdf.Term{}, err
		}
		return evalUnary(env, sparql.ExprUnary{Op: x.Op, X: sparql.ExprTerm{Term: v}}, key)
	default:
		return evalExpr(env, e, key)
	}
}

// evalAggregate computes one aggregate call over the group rows.
func evalAggregate(env *Env, call sparql.ExprCall, rows []rdf.Binding) (rdf.Term, error) {
	// Collect the argument values over the group.
	var values []rdf.Term
	if call.Star {
		values = make([]rdf.Term, len(rows))
		for i := range rows {
			values[i] = rdf.Integer(int64(i)) // placeholders; COUNT(*) counts rows
		}
		if call.Distinct {
			// COUNT(DISTINCT *) counts distinct rows.
			seen := map[string]bool{}
			values = values[:0]
			for _, r := range rows {
				k := r.Key(r.Vars())
				if !seen[k] {
					seen[k] = true
					values = append(values, rdf.Integer(0))
				}
			}
		}
	} else {
		if len(call.Args) != 1 {
			return rdf.Term{}, typeErrf("%s takes 1 argument", call.Func)
		}
		for _, r := range rows {
			if v, err := evalExpr(env, call.Args[0], r); err == nil {
				values = append(values, v)
			}
		}
		if call.Distinct {
			seen := map[rdf.Term]bool{}
			dedup := values[:0]
			for _, v := range values {
				if !seen[v] {
					seen[v] = true
					dedup = append(dedup, v)
				}
			}
			values = dedup
		}
	}

	return aggCompute(call, values)
}

// aggCompute folds the collected argument values of one aggregate call.
// It is shared by groupRows' evalAggregate and the columnar grouping, which
// collect values differently (expression evaluation per row vs column
// decode) but must fold identically.
func aggCompute(call sparql.ExprCall, values []rdf.Term) (rdf.Term, error) {
	switch call.Func {
	case "COUNT":
		return rdf.Integer(int64(len(values))), nil
	case "SUM":
		sum := rdf.Term(rdf.Integer(0))
		for _, v := range values {
			s, err := arith("+", sum, v)
			if err != nil {
				return rdf.Term{}, err
			}
			sum = s
		}
		return sum, nil
	case "AVG":
		if len(values) == 0 {
			return rdf.Integer(0), nil
		}
		sum := rdf.Term(rdf.Integer(0))
		for _, v := range values {
			s, err := arith("+", sum, v)
			if err != nil {
				return rdf.Term{}, err
			}
			sum = s
		}
		return arith("/", sum, rdf.Integer(int64(len(values))))
	case "MIN", "MAX":
		if len(values) == 0 {
			return rdf.Term{}, typeErrf("%s of empty group", call.Func)
		}
		best := values[0]
		for _, v := range values[1:] {
			cmp := orderCompare(v, best)
			if (call.Func == "MIN" && cmp < 0) || (call.Func == "MAX" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(values) == 0 {
			return rdf.Term{}, typeErrf("SAMPLE of empty group")
		}
		return values[0], nil
	case "GROUP_CONCAT":
		sep := call.Sep
		if sep == "" {
			sep = " "
		}
		parts := make([]string, 0, len(values))
		for _, v := range values {
			parts = append(parts, v.Value)
		}
		return rdf.NewLiteral(strings.Join(parts, sep)), nil
	}
	return rdf.Term{}, typeErrf("unknown aggregate %s", call.Func)
}
