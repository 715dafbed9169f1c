package algebra

import (
	"fmt"

	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// Translate converts a parsed query into a logical operator tree, applying
// the SPARQL group-graph-pattern translation rules and the solution
// modifier stack (Group → OrderBy → Project → Distinct → Slice).
func Translate(q *sparql.Query) (Operator, error) {
	t := &translator{}
	var op Operator = Unit{}
	if q.Where != nil {
		var err error
		op, err = t.group(*q.Where)
		if err != nil {
			return nil, err
		}
	}
	if q.Values != nil {
		op = joinOp(op, Values{Variables: q.Values.Vars, Rows: q.Values.Rows})
	}

	needsGroup := len(q.GroupBy) > 0 || len(q.Having) > 0
	for _, item := range q.Projection {
		if item.Expr != nil && sparql.HasAggregates(item.Expr) {
			needsGroup = true
		}
	}
	for _, oc := range q.OrderBy {
		if sparql.HasAggregates(oc.Expr) {
			return nil, fmt.Errorf("algebra: aggregates in ORDER BY are not supported; project the aggregate and order by its alias")
		}
	}

	having := q.Having
	if needsGroup {
		// A grouped solution binds only keys and aggregates, some of them
		// hidden, so SPARQL 1.1 does not allow SELECT * over it.
		if q.Form == sparql.FormSelect && len(q.Projection) == 0 {
			return nil, fmt.Errorf("algebra: SELECT * is not allowed with GROUP BY, HAVING or aggregates")
		}
		var err error
		if op, having, err = lowerGroup(op, q); err != nil {
			return nil, err
		}
	}
	// A select expression extends the solutions (§18.2.4.4; lowerGroup
	// placed those of a grouped query), HAVING filters them, and the
	// projection keeps the projected names, which drops a lowered group's
	// hidden variables.
	names := make([]string, len(q.Projection))
	for i, it := range q.Projection {
		if it.Expr != nil && !needsGroup {
			op = Extend{Input: op, Var: it.Var, Expr: it.Expr}
		}
		names[i] = it.Var
	}
	for _, h := range having {
		op = Filter{Input: op, Expr: h}
	}
	if len(q.OrderBy) > 0 {
		op = OrderBy{Input: op, Conds: q.OrderBy}
	}
	if len(names) > 0 {
		op = Project{Input: op, Names: names}
	}

	switch {
	case q.Distinct:
		op = Distinct{Input: op}
	case q.Reduced:
		op = Reduced{Input: op}
	}
	limit := q.Limit
	if q.Form == sparql.FormAsk {
		limit = 1
	}
	if q.Offset > 0 || limit >= 0 {
		op = Slice{Input: op, Offset: q.Offset, Limit: limit}
	}
	return op, nil
}

// lowerGroup translates the grouping of q over op as SPARQL 1.1 §18.2.4.1
// does. Expression keys and aggregate arguments are bound by Extends below
// the Group (an evaluation error leaves them unbound). Each aggregate call
// in SELECT or HAVING is an item of the Group, bound to the select item's
// variable when it is the whole item and to a hidden one otherwise, and
// every other select expression is an Extend above the Group. It returns
// those Extends over the Group, and HAVING with its aggregate calls
// replaced by their hidden variables.
func lowerGroup(op Operator, q *sparql.Query) (Operator, []sparql.Expression, error) {
	l := grouping{below: op}
	l.g.By = make([]string, len(q.GroupBy))
	for i, c := range q.GroupBy {
		if c.Expr != nil {
			if c.Var == "" {
				c.Var = l.hiddenVar()
			}
			l.below = Extend{Input: l.below, Var: c.Var, Expr: c.Expr}
		}
		l.g.By[i] = c.Var
	}
	var above []Extend
	for _, it := range q.Projection {
		if call, ok := it.Expr.(sparql.ExprCall); ok && call.IsAggregate() {
			l.aggregate(it.Expr, it.Var)
		} else if it.Expr != nil {
			above = append(above, Extend{Var: it.Var, Expr: l.lower(it.Expr)})
		}
	}
	having := l.lowerAll(q.Having)
	l.g.Input = l.below
	op = l.g
	for _, x := range above {
		op = Extend{Input: op, Var: x.Var, Expr: x.Expr}
	}
	return op, having, l.err
}

// grouping is the state of one lowerGroup: the Group it builds, the
// operator below it and the hidden variables minted so far.
type grouping struct {
	g     Group
	below Operator
	n     int
	err   error
}

// hiddenVar mints a variable the query's projection drops; the "." cannot
// start a variable name in the grammar, so no user variable collides.
func (l *grouping) hiddenVar() string {
	l.n++
	return fmt.Sprintf(".agg%d", l.n)
}

// aggregate makes the aggregate call e an item of the Group bound to v; an
// argument that is an expression is bound to a hidden variable below the
// Group.
func (l *grouping) aggregate(e sparql.Expression, v string) {
	if call := e.(sparql.ExprCall); !call.Star {
		if len(call.Args) != 1 {
			l.err = fmt.Errorf("algebra: %s takes one argument", call.Func)
		} else if _, ok := call.Args[0].(sparql.ExprVar); !ok {
			arg := l.hiddenVar()
			l.below = Extend{Input: l.below, Var: arg, Expr: call.Args[0]}
			call.Args = []sparql.Expression{sparql.ExprVar{Name: arg}}
			e = call
		}
	}
	l.g.Items = append(l.g.Items, sparql.SelectItem{Var: v, Expr: e})
}

// lower replaces every aggregate call in e by a hidden variable bound to
// it.
func (l *grouping) lower(e sparql.Expression) sparql.Expression {
	switch x := e.(type) {
	case sparql.ExprCall:
		if !x.IsAggregate() {
			x.Args = l.lowerAll(x.Args)
			return x
		}
		v := l.hiddenVar()
		l.aggregate(e, v)
		return sparql.ExprVar{Name: v}
	case sparql.ExprBinary:
		x.L, x.R = l.lower(x.L), l.lower(x.R)
		return x
	case sparql.ExprUnary:
		x.X = l.lower(x.X)
		return x
	case sparql.ExprIn:
		x.X, x.List = l.lower(x.X), l.lowerAll(x.List)
		return x
	}
	return e
}

func (l *grouping) lowerAll(es []sparql.Expression) []sparql.Expression {
	out := make([]sparql.Expression, len(es))
	for i, e := range es {
		out[i] = l.lower(e)
	}
	return out
}

// translator holds fresh-variable state for path rewriting, and the
// enclosing GRAPH term while translating a GRAPH group.
type translator struct {
	fresh int
	graph rdf.Term
}

// freshVar mints an internal variable; the "  " prefix cannot clash with
// user variables since the grammar forbids spaces in names.
func (t *translator) freshVar() rdf.Term {
	t.fresh++
	return rdf.NewVar(fmt.Sprintf("__path%d", t.fresh))
}

// joinOp joins two operators, eliding the Unit identity.
func joinOp(l, r Operator) Operator {
	if _, ok := l.(Unit); ok {
		return r
	}
	if _, ok := r.(Unit); ok {
		return l
	}
	return Join{Left: l, Right: r}
}

// group translates a group graph pattern: elements join in order, filters
// scope over the whole group.
func (t *translator) group(g sparql.GroupPattern) (Operator, error) {
	var op Operator = Unit{}
	var filters []sparql.Expression
	for _, el := range g.Elements {
		switch x := el.(type) {
		case sparql.BGP:
			b, err := t.bgp(x)
			if err != nil {
				return nil, err
			}
			op = joinOp(op, b)
		case sparql.FilterPattern:
			filters = append(filters, x.Expr)
		case sparql.OptionalPattern:
			inner, innerFilters, err := t.optionalBody(x.Pattern)
			if err != nil {
				return nil, err
			}
			op = LeftJoin{Left: op, Right: inner, Filters: innerFilters}
		case sparql.MinusPattern:
			inner, err := t.pattern(x.Pattern)
			if err != nil {
				return nil, err
			}
			op = Minus{Left: op, Right: inner}
		case sparql.BindPattern:
			op = Extend{Input: op, Var: x.Var, Expr: x.Expr}
		case sparql.ValuesPattern:
			op = joinOp(op, Values{Variables: x.Vars, Rows: x.Rows})
		case sparql.UnionPattern:
			u, err := t.pattern(x)
			if err != nil {
				return nil, err
			}
			op = joinOp(op, u)
		case sparql.GraphGraphPattern:
			// The traversal source is the union of all dereferenced
			// documents, and every triple's provenance (the document it
			// was dereferenced from) is retained: GRAPH constrains or
			// binds that provenance.
			saved := t.graph
			t.graph = x.Graph
			inner, err := t.pattern(x.Pattern)
			t.graph = saved
			if err != nil {
				return nil, err
			}
			op = joinOp(op, inner)
		case sparql.SubSelect:
			sub, err := Translate(x.Query)
			if err != nil {
				return nil, err
			}
			op = joinOp(op, sub)
		case sparql.GroupPattern:
			inner, err := t.group(x)
			if err != nil {
				return nil, err
			}
			op = joinOp(op, inner)
		default:
			return nil, fmt.Errorf("algebra: unsupported pattern %T", el)
		}
	}
	for _, f := range filters {
		op = Filter{Input: op, Expr: f}
	}
	return op, nil
}

// optionalBody translates the body of an OPTIONAL. Top-level filters of the
// optional group become part of the left-join condition, per the SPARQL
// semantics.
func (t *translator) optionalBody(p sparql.GraphPattern) (Operator, []sparql.Expression, error) {
	g, ok := p.(sparql.GroupPattern)
	if !ok {
		op, err := t.pattern(p)
		return op, nil, err
	}
	var filters []sparql.Expression
	rest := sparql.GroupPattern{}
	for _, el := range g.Elements {
		if f, isFilter := el.(sparql.FilterPattern); isFilter {
			filters = append(filters, f.Expr)
		} else {
			rest.Elements = append(rest.Elements, el)
		}
	}
	op, err := t.group(rest)
	return op, filters, err
}

// pattern translates any graph pattern node.
func (t *translator) pattern(p sparql.GraphPattern) (Operator, error) {
	switch x := p.(type) {
	case sparql.GroupPattern:
		return t.group(x)
	case sparql.BGP:
		return t.bgp(x)
	case sparql.UnionPattern:
		l, err := t.pattern(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := t.pattern(x.Right)
		if err != nil {
			return nil, err
		}
		return Union{Left: l, Right: r}, nil
	case sparql.SubSelect:
		return Translate(x.Query)
	default:
		return t.group(sparql.GroupPattern{Elements: []sparql.GraphPattern{p}})
	}
}

// bgp translates a basic graph pattern into a join chain of pattern scans,
// rewriting property paths where possible.
func (t *translator) bgp(b sparql.BGP) (Operator, error) {
	var op Operator = Unit{}
	for _, tp := range b.Patterns {
		one, err := t.triplePath(blankToVar(tp.S), tp.Path, blankToVar(tp.O))
		if err != nil {
			return nil, err
		}
		op = joinOp(op, one)
	}
	return op, nil
}

// blankToVar converts query blank nodes to internal (non-projectable)
// variables, per the SPARQL semantics of blank nodes in patterns.
func blankToVar(t rdf.Term) rdf.Term {
	if t.IsBlank() {
		return rdf.NewVar("__bn_" + t.Value)
	}
	return t
}

// triplePath rewrites one subject-path-object pattern.
func (t *translator) triplePath(s rdf.Term, path sparql.Path, o rdf.Term) (Operator, error) {
	switch p := path.(type) {
	case sparql.PathIRI:
		return Pattern{Triple: rdf.NewTriple(s, rdf.NewIRI(p.IRI), o), Graph: t.graph}, nil
	case sparql.PathVar:
		return Pattern{Triple: rdf.NewTriple(s, rdf.NewVar(p.Name), o), Graph: t.graph}, nil
	case sparql.PathInverse:
		return t.triplePath(o, p.Path, s)
	case sparql.PathSequence:
		if len(p.Parts) == 0 {
			return nil, fmt.Errorf("algebra: empty path sequence")
		}
		var op Operator = Unit{}
		cur := s
		for i, part := range p.Parts {
			var next rdf.Term
			if i == len(p.Parts)-1 {
				next = o
			} else {
				next = t.freshVar()
			}
			one, err := t.triplePath(cur, part, next)
			if err != nil {
				return nil, err
			}
			op = joinOp(op, one)
			cur = next
		}
		return op, nil
	case sparql.PathAlternative:
		if len(p.Parts) == 0 {
			return nil, fmt.Errorf("algebra: empty path alternative")
		}
		op, err := t.triplePath(s, p.Parts[0], o)
		if err != nil {
			return nil, err
		}
		for _, part := range p.Parts[1:] {
			right, err := t.triplePath(s, part, o)
			if err != nil {
				return nil, err
			}
			op = Union{Left: op, Right: right}
		}
		return op, nil
	case sparql.PathZeroOrMore, sparql.PathOneOrMore, sparql.PathZeroOrOne, sparql.PathNegated:
		return PathPattern{S: s, O: o, Path: path}, nil
	default:
		return nil, fmt.Errorf("algebra: unsupported path %T", path)
	}
}
