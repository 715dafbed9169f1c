// Package algebra defines the logical query algebra of the engine and the
// translation from the parsed SPARQL AST into algebra operator trees, per
// the SPARQL 1.1 semantics (group graph patterns translate to joins and
// left-joins, filters scope over their group, property paths are rewritten
// into joins/unions where possible).
//
// The algebra deliberately distinguishes monotonic operators — which the
// executor evaluates incrementally while traversal still adds triples — from
// blocking operators (ordering, grouping, MINUS, bare-row emission of
// left-joins) that gate on source completion. This mirrors the paper's
// "pipelined implementations of all monotonic SPARQL operators".
package algebra

import (
	"fmt"
	"sort"

	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// Operator is a node of the logical plan.
type Operator interface {
	isOperator()
	// Vars returns the set of variables this operator may bind.
	Vars() []string
}

// Unit produces exactly one empty binding; it is the join identity.
type Unit struct{}

// Pattern is a single triple pattern scan against the growing source.
// When Graph is non-zero, the pattern additionally constrains (constant)
// or binds (variable) the *document* each matching triple was dereferenced
// from — the traversal engine's provenance semantics for GRAPH clauses.
type Pattern struct {
	Triple rdf.Triple
	Graph  rdf.Term
}

// PathPattern is a property-path pattern that could not be rewritten into
// joins/unions (transitive closures and negated sets). It is evaluated by a
// dedicated physical operator.
type PathPattern struct {
	S, O rdf.Term
	Path sparql.Path
}

// Join is the natural join of two operand streams (symmetric, incremental).
type Join struct{ Left, Right Operator }

// LeftJoin is SPARQL OPTIONAL: all left solutions, extended by compatible
// right solutions satisfying the filters when any exist.
type LeftJoin struct {
	Left, Right Operator
	Filters     []sparql.Expression
}

// Union is the SPARQL UNION of two streams.
type Union struct{ Left, Right Operator }

// Minus is SPARQL MINUS (blocking).
type Minus struct{ Left, Right Operator }

// Filter keeps solutions whose expression evaluates to a true effective
// boolean value.
type Filter struct {
	Input Operator
	Expr  sparql.Expression
}

// Extend is BIND: evaluates an expression and binds it to a fresh variable.
type Extend struct {
	Input Operator
	Var   string
	Expr  sparql.Expression
}

// Values produces an inline table of solutions.
type Values struct {
	Variables []string
	Rows      []rdf.Binding
}

// Project restricts solutions to the named variables, in order. Translate
// binds a select expression ((expr AS ?v)) with an Extend below it and
// builds no Project for SELECT *.
type Project struct {
	Input Operator
	Names []string
}

// Distinct removes duplicate solutions.
type Distinct struct{ Input Operator }

// Reduced permits (but does not require) duplicate removal; the executor
// drops consecutive duplicates.
type Reduced struct{ Input Operator }

// OrderBy sorts solutions (blocking).
type OrderBy struct {
	Input Operator
	Conds []sparql.OrderCondition
}

// Slice applies OFFSET/LIMIT. Limit < 0 means unlimited.
type Slice struct {
	Input         Operator
	Offset, Limit int
}

// Group is GROUP BY (blocking): one row per distinct combination of the
// key variables' values, binding each item's variable to its aggregate over
// the group's rows. Translate lowers everything else a grouped query says
// around it (see lowerGroup), so a key is a variable and an item is an
// aggregate call whose argument is a variable or *.
type Group struct {
	Input Operator
	By    []string
	Items []sparql.SelectItem
}

func (Unit) isOperator()        {}
func (Pattern) isOperator()     {}
func (PathPattern) isOperator() {}
func (Join) isOperator()        {}
func (LeftJoin) isOperator()    {}
func (Union) isOperator()       {}
func (Minus) isOperator()       {}
func (Filter) isOperator()      {}
func (Extend) isOperator()      {}
func (Values) isOperator()      {}
func (Project) isOperator()     {}
func (Distinct) isOperator()    {}
func (Reduced) isOperator()     {}
func (OrderBy) isOperator()     {}
func (Slice) isOperator()       {}
func (Group) isOperator()       {}

// sortedVars converts a set to a sorted slice.
func sortedVars(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Vars implementations.

// Vars returns no variables for Unit.
func (Unit) Vars() []string { return nil }

// Vars returns the variables of the triple pattern, including a variable
// graph term.
func (p Pattern) Vars() []string {
	vars := p.Triple.Vars()
	if p.Graph.IsVar() {
		seen := false
		for _, v := range vars {
			if v == p.Graph.Value {
				seen = true
			}
		}
		if !seen {
			vars = append(vars, p.Graph.Value)
		}
	}
	return vars
}

// Vars returns the endpoint variables of the path pattern.
func (p PathPattern) Vars() []string {
	set := map[string]bool{}
	if p.S.IsVar() {
		set[p.S.Value] = true
	}
	if p.O.IsVar() {
		set[p.O.Value] = true
	}
	return sortedVars(set)
}

func union2(a, b Operator) []string {
	set := map[string]bool{}
	for _, v := range a.Vars() {
		set[v] = true
	}
	for _, v := range b.Vars() {
		set[v] = true
	}
	return sortedVars(set)
}

// Vars returns the union of both operand variable sets.
func (j Join) Vars() []string { return union2(j.Left, j.Right) }

// Vars returns the union of both operand variable sets.
func (j LeftJoin) Vars() []string { return union2(j.Left, j.Right) }

// Vars returns the union of both operand variable sets.
func (u Union) Vars() []string { return union2(u.Left, u.Right) }

// Vars returns the left operand's variables (MINUS never adds bindings).
func (m Minus) Vars() []string { return m.Left.Vars() }

// Vars returns the input's variables.
func (f Filter) Vars() []string { return f.Input.Vars() }

// Vars returns the input's variables plus the bound variable.
func (e Extend) Vars() []string {
	set := map[string]bool{e.Var: true}
	for _, v := range e.Input.Vars() {
		set[v] = true
	}
	return sortedVars(set)
}

// Vars returns the table's variables.
func (v Values) Vars() []string { return append([]string(nil), v.Variables...) }

// Vars returns the projected variables.
func (p Project) Vars() []string { return append([]string(nil), p.Names...) }

// Vars returns the input's variables.
func (d Distinct) Vars() []string { return d.Input.Vars() }

// Vars returns the input's variables.
func (r Reduced) Vars() []string { return r.Input.Vars() }

// Vars returns the input's variables.
func (o OrderBy) Vars() []string { return o.Input.Vars() }

// Vars returns the input's variables.
func (s Slice) Vars() []string { return s.Input.Vars() }

// Vars returns group keys plus aggregate output variables.
func (g Group) Vars() []string {
	set := map[string]bool{}
	for _, v := range g.By {
		set[v] = true
	}
	for _, it := range g.Items {
		set[it.Var] = true
	}
	return sortedVars(set)
}

// SharedVars returns the variables common to both operators, sorted.
func SharedVars(a, b Operator) []string {
	set := map[string]bool{}
	for _, v := range a.Vars() {
		set[v] = true
	}
	var out []string
	for _, v := range b.Vars() {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// String renders a compact plan tree for debugging and plan tests.
func String(op Operator) string {
	switch x := op.(type) {
	case Unit:
		return "unit"
	case Pattern:
		if !x.Graph.IsZero() {
			return fmt.Sprintf("pattern(%s @ %s)", x.Triple, x.Graph)
		}
		return fmt.Sprintf("pattern(%s)", x.Triple)
	case PathPattern:
		return fmt.Sprintf("path(%s ~ %s)", x.S, x.O)
	case Join:
		return fmt.Sprintf("join(%s, %s)", String(x.Left), String(x.Right))
	case LeftJoin:
		return fmt.Sprintf("leftjoin(%s, %s)", String(x.Left), String(x.Right))
	case Union:
		return fmt.Sprintf("union(%s, %s)", String(x.Left), String(x.Right))
	case Minus:
		return fmt.Sprintf("minus(%s, %s)", String(x.Left), String(x.Right))
	case Filter:
		return fmt.Sprintf("filter(%s)", String(x.Input))
	case Extend:
		return fmt.Sprintf("extend(?%s, %s)", x.Var, String(x.Input))
	case Values:
		return fmt.Sprintf("values(%d rows)", len(x.Rows))
	case Project:
		return fmt.Sprintf("project(%v, %s)", x.Vars(), String(x.Input))
	case Distinct:
		return fmt.Sprintf("distinct(%s)", String(x.Input))
	case Reduced:
		return fmt.Sprintf("reduced(%s)", String(x.Input))
	case OrderBy:
		return fmt.Sprintf("orderby(%s)", String(x.Input))
	case Slice:
		return fmt.Sprintf("slice(%d, %d, %s)", x.Offset, x.Limit, String(x.Input))
	case Group:
		return fmt.Sprintf("group(%s)", String(x.Input))
	default:
		return fmt.Sprintf("%T", op)
	}
}
