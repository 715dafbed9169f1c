package exec

import (
	"strings"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// groupRows is the reference's GROUP BY over materialised rows: groups in
// first-seen order, each aggregate folded over its group's rows in input
// order.
func groupRows(env *Env, g algebra.Group, rows []rdf.Binding) []rdf.Binding {
	type grp struct {
		key  rdf.Binding
		rows []rdf.Binding
	}
	// Every row keys over the same names, one per key variable, so an
	// unbound key position cannot shift the others: (UNDEF, x) and
	// (x, UNDEF) are two groups.
	groups := map[string]*grp{}
	var order []string
	for _, row := range rows {
		key := row.Project(g.By)
		ks := key.Key(g.By)
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
		for _, item := range g.Items {
			if v, err := evalAggregate(env, item.Expr.(sparql.ExprCall), gr.rows); err == nil {
				result[item.Var] = v
			}
		}
		out = append(out, result)
	}
	return out
}

// evalAggregate computes one aggregate call over the group rows.
func evalAggregate(env *Env, call sparql.ExprCall, rows []rdf.Binding) (rdf.Term, error) {
	var values []rdf.Term
	seen := map[rdf.Term]bool{}
	for _, r := range rows {
		var v rdf.Term // COUNT(*) counts one per row, or per distinct row
		var err error
		if !call.Star {
			v, err = evalExpr(env, call.Args[0], r)
		} else if call.Distinct {
			v = rdf.NewLiteral(r.String())
		}
		if err != nil || call.Distinct && seen[v] {
			continue
		}
		seen[v] = true
		values = append(values, v)
	}
	return aggCompute(call, values)
}

// aggCompute folds the collected argument values of one aggregate call.
// It is shared by groupRows' evalAggregate and batchGroup, which collect
// values differently (a binding lookup per row vs column decode) but must
// fold identically.
func aggCompute(call sparql.ExprCall, values []rdf.Term) (rdf.Term, error) {
	switch call.Func {
	case "COUNT":
		return rdf.Integer(int64(len(values))), nil
	case "SUM", "AVG":
		if len(values) == 0 && call.Func == "AVG" {
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
		if call.Func == "SUM" {
			return sum, nil
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
