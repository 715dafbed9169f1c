package algebra

import (
	"strings"
	"testing"

	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

func translate(t *testing.T, q string) Operator {
	t.Helper()
	parsed, err := sparql.ParseQuery(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	op, err := Translate(parsed)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return op
}

func TestTranslateBGPToJoinChain(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b WHERE { ?a ex:p ?x . ?x ex:q ?b . ?b ex:r ex:c . }`)
	s := String(op)
	if strings.Count(s, "pattern(") != 3 {
		t.Errorf("expected 3 patterns: %s", s)
	}
	if strings.Count(s, "join(") != 2 {
		t.Errorf("expected 2 joins: %s", s)
	}
	if !strings.HasPrefix(s, "project(") {
		t.Errorf("projection missing: %s", s)
	}
}

func TestTranslateFiltersScopeOverGroup(t *testing.T) {
	// The filter appears before the pattern textually but must apply to
	// the whole group.
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { FILTER(?b > 3) ?a ex:p ?b . }`)
	s := String(op)
	if !strings.Contains(s, "filter(") {
		t.Fatalf("filter missing: %s", s)
	}
	if strings.Index(s, "filter(") > strings.Index(s, "pattern(") {
		t.Errorf("filter should wrap the pattern: %s", s)
	}
}

func TestTranslateOptionalWithFilters(t *testing.T) {
	q, err := sparql.ParseQuery(`
PREFIX ex: <http://example.org/>
SELECT * WHERE { ?a ex:p ?b OPTIONAL { ?b ex:q ?c FILTER(?c != ?a) } }`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	var lj *LeftJoin
	var find func(Operator)
	find = func(o Operator) {
		switch x := o.(type) {
		case LeftJoin:
			lj = &x
		case Project:
			find(x.Input)
		case Slice:
			find(x.Input)
		case Distinct:
			find(x.Input)
		}
	}
	find(op)
	if lj == nil {
		t.Fatalf("no leftjoin: %s", String(op))
	}
	if len(lj.Filters) != 1 {
		t.Errorf("optional filters = %d, want 1 (part of the join condition)", len(lj.Filters))
	}
}

func TestTranslatePathRewrites(t *testing.T) {
	// Sequence becomes a join with a fresh variable.
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b WHERE { ?a ex:p/ex:q ?b }`)
	s := String(op)
	if strings.Count(s, "pattern(") != 2 || !strings.Contains(s, "__path") {
		t.Errorf("sequence rewrite: %s", s)
	}
	// Alternative becomes a union.
	op = translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b WHERE { ?a (ex:p|ex:q) ?b }`)
	s = String(op)
	if !strings.Contains(s, "union(") {
		t.Errorf("alternative rewrite: %s", s)
	}
	// Inverse swaps subject and object.
	op = translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ^ex:p ex:b }`)
	s = String(op)
	if !strings.Contains(s, "pattern(<http://example.org/b> <http://example.org/p> ?a)") {
		t.Errorf("inverse rewrite: %s", s)
	}
	// Transitive stays a path operator.
	op = translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p+ ex:b }`)
	if !strings.Contains(String(op), "path(") {
		t.Errorf("transitive: %s", String(op))
	}
}

func TestTranslateBlankNodesBecomeVars(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?m WHERE { ex:me ex:likes _:g0 . _:g0 ex:hasPost ?m . }`)
	s := String(op)
	if !strings.Contains(s, "?__bn_q.g0") {
		t.Errorf("blank node not converted: %s", s)
	}
}

func TestTranslateModifierStack(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?a WHERE { ?a ex:p ?b } ORDER BY ?b LIMIT 5 OFFSET 2`)
	s := String(op)
	// slice(distinct(project(orderby(...)))) outermost-first.
	wantOrder := []string{"slice(2, 5", "distinct(", "project(", "orderby("}
	pos := -1
	for _, w := range wantOrder {
		i := strings.Index(s, w)
		if i < 0 {
			t.Fatalf("missing %q in %s", w, s)
		}
		if i < pos {
			t.Errorf("modifier order wrong: %s", s)
		}
		pos = i
	}
}

func TestTranslateAggregates(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:p ?b } GROUP BY ?a HAVING(COUNT(?b) > 1)`)
	s := String(op)
	if !strings.Contains(s, "group(") {
		t.Errorf("group missing: %s", s)
	}
	vars := op.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "n" {
		t.Errorf("vars = %v", vars)
	}
}

func TestTranslateImplicitGroup(t *testing.T) {
	// Aggregates without GROUP BY still introduce a Group operator.
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(*) AS ?n) WHERE { ?a ex:p ?b }`)
	if !strings.Contains(String(op), "group(") {
		t.Errorf("implicit group missing: %s", String(op))
	}
}

func TestTranslateAskAddsLimit(t *testing.T) {
	op := translate(t, `ASK { ?a ?p ?b }`)
	if !strings.Contains(String(op), "slice(0, 1") {
		t.Errorf("ASK should slice to 1: %s", String(op))
	}
}

func TestTranslateOrderByAggregateRejected(t *testing.T) {
	q, err := sparql.ParseQuery(`
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p ?b } GROUP BY ?a ORDER BY DESC(COUNT(?b))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(q); err == nil {
		t.Error("aggregate in ORDER BY should be rejected with a helpful error")
	}
}

// TestTranslateGroupedSelectStarRejected: a grouped solution binds only
// keys and aggregates, some of them hidden, so SELECT * over it is an error.
func TestTranslateGroupedSelectStarRejected(t *testing.T) {
	for _, tail := range []string{"GROUP BY ?a", "HAVING (COUNT(?b) > 1)", "GROUP BY ?a HAVING (COUNT(?b) > 1)"} {
		q, err := sparql.ParseQuery("PREFIX ex: <http://example.org/>\nSELECT * WHERE { ?a ex:p ?b } " + tail)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Translate(q); err == nil {
			t.Errorf("SELECT * with %s should be rejected", tail)
		}
	}
}

func TestVarsComputation(t *testing.T) {
	p1 := Pattern{Triple: rdf.NewTriple(rdf.NewVar("a"), rdf.NewIRI("http://p"), rdf.NewVar("b"))}
	p2 := Pattern{Triple: rdf.NewTriple(rdf.NewVar("b"), rdf.NewIRI("http://q"), rdf.NewVar("c"))}
	j := Join{Left: p1, Right: p2}
	if got := j.Vars(); len(got) != 3 {
		t.Errorf("join vars = %v", got)
	}
	if got := SharedVars(p1, p2); len(got) != 1 || got[0] != "b" {
		t.Errorf("shared vars = %v", got)
	}
	e := Extend{Input: p1, Var: "x"}
	if got := e.Vars(); len(got) != 3 {
		t.Errorf("extend vars = %v", got)
	}
	m := Minus{Left: p1, Right: p2}
	if got := m.Vars(); len(got) != 2 {
		t.Errorf("minus vars = %v (right side must not leak)", got)
	}
}

func TestTranslateValuesAndSubselect(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a ?n WHERE {
  VALUES ?a { ex:x ex:y }
  { SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:p ?b } GROUP BY ?a }
}`)
	s := String(op)
	if !strings.Contains(s, "values(2 rows)") || !strings.Contains(s, "group(") {
		t.Errorf("plan = %s", s)
	}
}

func TestTranslateUnionOfGroups(t *testing.T) {
	op := translate(t, `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:q ?b . FILTER(?b > 1) } }`)
	s := String(op)
	if !strings.Contains(s, "union(") || !strings.Contains(s, "filter(") {
		t.Errorf("plan = %s", s)
	}
}

func TestStringCoversAllOperators(t *testing.T) {
	p := Pattern{Triple: rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://p"), rdf.NewVar("o"))}
	pp := PathPattern{S: rdf.NewVar("s"), O: rdf.NewIRI("http://o")}
	ops := []Operator{
		Unit{}, p, pp,
		Join{Left: p, Right: p},
		LeftJoin{Left: p, Right: p},
		Union{Left: p, Right: p},
		Minus{Left: p, Right: p},
		Filter{Input: p},
		Extend{Input: p, Var: "x"},
		Values{Variables: []string{"v"}},
		Project{Input: p},
		Distinct{Input: p},
		Reduced{Input: p},
		OrderBy{Input: p},
		Slice{Input: p, Offset: 1, Limit: 2},
		Group{Input: p},
	}
	seen := map[string]bool{}
	for _, op := range ops {
		s := String(op)
		if s == "" {
			t.Errorf("empty String for %T", op)
		}
		if seen[s] {
			t.Errorf("ambiguous rendering %q", s)
		}
		seen[s] = true
		_ = op.Vars() // must not panic
	}
	if got := pp.Vars(); len(got) != 1 || got[0] != "s" {
		t.Errorf("path vars = %v", got)
	}
	if got := (Values{Variables: []string{"a", "b"}}).Vars(); len(got) != 2 {
		t.Errorf("values vars = %v", got)
	}
	if got := (Reduced{Input: p}).Vars(); len(got) != 2 {
		t.Errorf("reduced vars = %v", got)
	}
	if got := (OrderBy{Input: p}).Vars(); len(got) != 2 {
		t.Errorf("orderby vars = %v", got)
	}
	if got := (Slice{Input: p}).Vars(); len(got) != 2 {
		t.Errorf("slice vars = %v", got)
	}
	g := Group{Input: p, By: []string{"s"},
		Items: []sparql.SelectItem{{Var: "n", Expr: sparql.ExprCall{Func: "COUNT", Star: true}}}}
	if got := g.Vars(); len(got) != 2 {
		t.Errorf("group vars = %v", got)
	}
}

func TestTranslateEmptyQuery(t *testing.T) {
	op := translate(t, `ASK {}`)
	if !strings.Contains(String(op), "unit") {
		t.Errorf("empty where = %s", String(op))
	}
}

func TestTranslateGraphPattern(t *testing.T) {
	op := translate(t, `SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }`)
	if !strings.Contains(String(op), "pattern(") {
		t.Errorf("graph translation = %s", String(op))
	}
}

func TestTranslateDescribeNoWhere(t *testing.T) {
	q, err := sparql.ParseQuery(`DESCRIBE <http://a>`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(String(op), "unit") {
		t.Errorf("describe plan = %s", String(op))
	}
}
