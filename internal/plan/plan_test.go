package plan

import (
	"strings"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

func pattern(s, p, o rdf.Term) algebra.Pattern {
	return algebra.Pattern{Triple: rdf.NewTriple(s, p, o)}
}

func v(n string) rdf.Term   { return rdf.NewVar(n) }
func iri(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

// firstLeaf returns the leftmost leaf of a join tree.
func firstLeaf(op algebra.Operator) algebra.Operator {
	for {
		j, ok := op.(algebra.Join)
		if !ok {
			return op
		}
		op = j.Left
	}
}

func TestSeedAnchoredPatternFirst(t *testing.T) {
	seed := "http://example.org/alice/card"
	p := New([]string{seed})
	// Discover-6 shape: (?m hasCreator <card#me>) . (?f containerOf ?m) .
	// (?f id ?id) . (?f title ?t)
	creator := pattern(v("m"), iri("hasCreator"), rdf.NewIRI(seed+"#me"))
	container := pattern(v("f"), iri("containerOf"), v("m"))
	id := pattern(v("f"), iri("id"), v("id"))
	title := pattern(v("f"), iri("title"), v("t"))
	join := algebra.Join{
		Left:  algebra.Join{Left: algebra.Join{Left: title, Right: id}, Right: container},
		Right: creator,
	}
	got := p.Optimize(join)
	if fl := firstLeaf(got); fl != algebra.Operator(creator) {
		t.Errorf("first leaf = %s, want the seed-anchored pattern", algebra.String(fl))
	}
}

func TestDependencyRespectingOrder(t *testing.T) {
	p := New(nil)
	// a--b--c chain given in worst order plus a disconnected pattern d.
	ab := pattern(iri("a"), iri("p"), v("b"))
	bc := pattern(v("b"), iri("q"), v("c"))
	cd := pattern(v("c"), iri("r"), v("d"))
	disconnected := pattern(v("x"), iri("s"), v("y"))
	join := algebra.Join{
		Left:  algebra.Join{Left: disconnected, Right: cd},
		Right: algebra.Join{Left: bc, Right: ab},
	}
	got := p.Optimize(join)
	// Walk the left-deep tree collecting leaves in execution order.
	var order []string
	var walk func(algebra.Operator)
	walk = func(op algebra.Operator) {
		if j, ok := op.(algebra.Join); ok {
			walk(j.Left)
			walk(j.Right)
			return
		}
		order = append(order, algebra.String(op))
	}
	walk(got)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// ab has a constant subject → first; then bc (shares b), then cd
	// (shares c); the disconnected pattern must come last.
	if !strings.Contains(order[0], "<http://example.org/a>") {
		t.Errorf("first = %s", order[0])
	}
	if !strings.Contains(order[1], "?b") || !strings.Contains(order[2], "?c") {
		t.Errorf("chain order = %v", order)
	}
	if !strings.Contains(order[3], "?x") {
		t.Errorf("disconnected pattern should be last: %v", order)
	}
}

func TestRdfTypePenalty(t *testing.T) {
	p := New(nil)
	typ := pattern(v("m"), rdf.NewIRI(rdf.RDFType), iri("Post"))
	content := pattern(v("m"), iri("content"), v("c"))
	anchored := pattern(v("m"), iri("hasCreator"), iri("me"))
	got := p.Optimize(algebra.Join{Left: algebra.Join{Left: typ, Right: content}, Right: anchored})
	if fl := firstLeaf(got); fl != algebra.Operator(anchored) {
		t.Errorf("first leaf = %s; rdf:type patterns must be deprioritized", algebra.String(fl))
	}
}

func TestValuesScheduledFirst(t *testing.T) {
	p := New(nil)
	vals := algebra.Values{Variables: []string{"m"}, Rows: []rdf.Binding{{"m": iri("x")}}}
	pat := pattern(v("m"), iri("p"), v("o"))
	got := p.Optimize(algebra.Join{Left: pat, Right: vals})
	if _, ok := firstLeaf(got).(algebra.Values); !ok {
		t.Errorf("VALUES should run first: %s", algebra.String(got))
	}
}

func TestOptimizePreservesTreeShape(t *testing.T) {
	// Non-join operators must be preserved and recursed into.
	q, err := sparql.ParseQuery(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?a WHERE {
  ?a ex:p ?b .
  OPTIONAL { ?b ex:q ?c }
  FILTER(?b != ex:z)
} ORDER BY ?a LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	before := algebra.String(op)
	after := algebra.String(New(nil).Optimize(op))
	for _, kind := range []string{"slice(", "distinct(", "project(", "orderby(", "filter(", "leftjoin("} {
		if strings.Count(before, kind) != strings.Count(after, kind) {
			t.Errorf("operator %s count changed:\nbefore %s\nafter  %s", kind, before, after)
		}
	}
}

func TestOptimizeSingleAndEmpty(t *testing.T) {
	p := New(nil)
	single := pattern(v("a"), iri("p"), v("b"))
	if got := p.Optimize(single); got != algebra.Operator(single) {
		t.Errorf("single pattern changed: %v", got)
	}
	unit := algebra.Unit{}
	if got := p.Optimize(unit); got != algebra.Operator(unit) {
		t.Errorf("unit changed: %v", got)
	}
}

func TestScoreOrdering(t *testing.T) {
	p := New([]string{"http://example.org/seed"})
	cases := []struct {
		name   string
		better rdf.Triple
		worse  rdf.Triple
	}{
		{
			"seed beats plain constant",
			rdf.NewTriple(rdf.NewIRI("http://example.org/seed#me"), iri("p"), v("o")),
			rdf.NewTriple(iri("other"), iri("p"), v("o")),
		},
		{
			"subject constant beats object constant",
			rdf.NewTriple(iri("s"), iri("p"), v("o")),
			rdf.NewTriple(v("s"), iri("p"), iri("o")),
		},
		{
			"object constant beats all-var",
			rdf.NewTriple(v("s"), iri("p"), iri("o")),
			rdf.NewTriple(v("s"), v("p"), v("o")),
		},
	}
	for _, c := range cases {
		if p.scorePattern(c.better) <= p.scorePattern(c.worse) {
			t.Errorf("%s: %d <= %d", c.name, p.scorePattern(c.better), p.scorePattern(c.worse))
		}
	}
}
