package exec

import (
	"context"
	"testing"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
	"ltqp/internal/turtle"
)

func TestPathBothEndpointsVariable(t *testing.T) {
	got := runQuery(t, `
@prefix ex: <http://example.org/> .
ex:a ex:next ex:b . ex:b ex:next ex:c .
`, `
PREFIX ex: <http://example.org/>
SELECT ?x ?y WHERE { ?x ex:next+ ?y }`)
	// a→b, a→c, b→c.
	if len(got) != 3 {
		t.Errorf("pairs = %v", got)
	}
}

func TestPathZeroOrMoreBothVars(t *testing.T) {
	got := runQuery(t, `
@prefix ex: <http://example.org/> .
ex:a ex:next ex:b .
`, `
PREFIX ex: <http://example.org/>
SELECT ?x ?y WHERE { ?x ex:next* ?y }`)
	// Zero-length: a→a, b→b, ex:next→ex:next (predicate node appears as
	// neither subject nor object, so: nodes are a, b; pairs a→a, b→b, a→b.
	if len(got) != 3 {
		t.Errorf("pairs = %v", got)
	}
}

func TestPathBothEndpointsConstant(t *testing.T) {
	data := `
@prefix ex: <http://example.org/> .
ex:a ex:next ex:b . ex:b ex:next ex:c .
`
	got := runQuery(t, data, `
PREFIX ex: <http://example.org/>
ASK { ex:a ex:next+ ex:c }`)
	if len(got) != 1 {
		t.Error("reachable pair should hold")
	}
	got = runQuery(t, data, `
PREFIX ex: <http://example.org/>
ASK { ex:c ex:next+ ex:a }`)
	if len(got) != 0 {
		t.Error("unreachable pair should fail")
	}
}

func TestInversePathOfSequence(t *testing.T) {
	got := runQuery(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b . ex:b ex:q ex:c .
`, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ex:c ^(ex:p/ex:q) ?x }`)
	if len(got) != 1 || got[0]["x"] != rdf.NewIRI("http://example.org/a") {
		t.Errorf("inverse sequence = %v", got)
	}
}

func TestNegatedInverse(t *testing.T) {
	got := runQuery(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p ex:target . ex:b ex:q ex:target .
`, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ex:target !(^ex:p) ?x }`)
	// Inverse edges into target: via p (excluded) and q (included).
	if len(got) != 1 || got[0]["x"] != rdf.NewIRI("http://example.org/b") {
		t.Errorf("negated inverse = %v", got)
	}
}

func TestGraphPatternEvaluatesOverUnion(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?n WHERE { GRAPH ?g { ?p foaf:nick ?n } }`)
	if len(got) != 1 || got[0]["n"].Value != "d" {
		t.Errorf("graph pattern = %v", got)
	}
}

func TestMinusWithoutSharedVarsKeepsAll(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?n WHERE {
  ?p foaf:name ?n .
  MINUS { ?x foaf:nick ?y }
}`)
	// MINUS with disjoint domains removes nothing (SPARQL §8.3.3).
	if len(got) != 4 {
		t.Errorf("minus disjoint = %d rows", len(got))
	}
}

func TestNestedOptional(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name ?k ?kk WHERE {
  ex:alice foaf:name ?name .
  OPTIONAL {
    ex:alice foaf:knows ?k .
    OPTIONAL { ?k foaf:knows ?kk }
  }
}`)
	// alice knows bob (knows carol) and carol (knows nobody).
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	withKK := 0
	for _, b := range got {
		if b.Has("kk") {
			withKK++
		}
	}
	if withKK != 1 {
		t.Errorf("nested optional rows with kk = %d", withKK)
	}
}

func TestUnionBranchVariablesStayDisjoint(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?a ?b WHERE {
  { ex:alice foaf:name ?a } UNION { ex:bob foaf:name ?b }
}`)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	for _, b := range got {
		if b.Has("a") == b.Has("b") {
			t.Errorf("row binds both/neither branch var: %v", b)
		}
	}
}

func TestAggExprArithmetic(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
SELECT (SUM(?age) / COUNT(?age) AS ?mean) WHERE { ?p ex:age ?age }`)
	if len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
	if mean, err := got[0]["mean"].Float(); err != nil || mean != 28.75 {
		t.Errorf("mean = %v", got[0]["mean"])
	}
}

func TestAggDistinct(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(DISTINCT ?age) AS ?n) WHERE { ?p ex:age ?age }`)
	if got[0]["n"].Value != "3" {
		t.Errorf("distinct ages = %v", got[0]["n"])
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
SELECT ?decade (COUNT(*) AS ?n) WHERE { ?p ex:age ?age }
GROUP BY (FLOOR(?age / 10) AS ?decade) ORDER BY ?decade`)
	// Ages 25,25,30,35 → decades 2 (two people) and 3 (two people).
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	if got[0]["n"].Value != "2" || got[1]["n"].Value != "2" {
		t.Errorf("group sizes = %v", got)
	}
}

func TestFilterExistsSeesSubstitution(t *testing.T) {
	// EXISTS with correlated and path patterns.
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE {
  ?p foaf:name ?name .
  FILTER EXISTS { ?p foaf:knows/foaf:knows ?x }
}`)
	// Only alice: knows bob who knows carol (and carol, who knows no one).
	if len(got) != 1 || got[0]["name"].Value != "Alice" {
		t.Errorf("correlated exists = %v", got)
	}
}

func TestSnapshotSolutionsOperators(t *testing.T) {
	// Exercise the snapshot evaluator branches through EXISTS with
	// UNION, OPTIONAL, BIND, VALUES and FILTER inside.
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE {
  ?p foaf:name ?name .
  FILTER EXISTS {
    { ?p foaf:knows ?f } UNION { ?p foaf:nick ?nick }
    OPTIONAL { ?f ex:age ?fa }
    BIND(1 AS ?one)
    FILTER(?one = 1)
  }
}`)
	// alice, bob (knows) + dave (nick) = 3.
	if len(got) != 3 {
		t.Errorf("exists composite = %v", got)
	}
}

func TestEmptyStoreQueries(t *testing.T) {
	st := store.New()
	st.Close()
	got := runQueryOn(t, st, `SELECT ?s WHERE { ?s ?p ?o }`)
	if len(got) != 0 {
		t.Errorf("empty store = %v", got)
	}
	got = runQueryOn(t, st, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if len(got) != 1 || got[0]["n"].Value != "0" {
		t.Errorf("count over empty = %v", got)
	}
}

func TestOrderByMixedTypes(t *testing.T) {
	got := runQuery(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 5 .
ex:b ex:v "text" .
ex:c ex:v ex:iri .
ex:d ex:v 2 .
`, `
PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE { ?s ex:v ?v } ORDER BY ?v`)
	if len(got) != 4 {
		t.Fatalf("rows = %d", len(got))
	}
	// IRI < literals; numbers order by value before the string.
	if got[0]["v"].Kind != rdf.TermIRI {
		t.Errorf("first = %v", got[0]["v"])
	}
	if got[1]["v"].Value != "2" || got[2]["v"].Value != "5" {
		t.Errorf("numeric order = %v, %v", got[1]["v"], got[2]["v"])
	}
}

func TestValuesWithUndefJoins(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name ?extra WHERE {
  VALUES (?p ?extra) { (ex:alice "first") (UNDEF "wild") }
  ?p foaf:name ?name .
}`)
	// Row 1 pins alice; row 2 leaves ?p unbound → joins all 4 names.
	if len(got) != 5 {
		t.Errorf("rows = %d: %v", len(got), got)
	}
}

func TestSubqueryLimitInside(t *testing.T) {
	got := runQuery(t, peopleData, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE {
  { SELECT ?p WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2 }
  ?p foaf:name ?name .
}`)
	if len(got) != 2 {
		t.Errorf("rows = %v", got)
	}
}

func TestConcurrentQueryExecutions(t *testing.T) {
	// Multiple queries over one closed store run concurrently.
	src := store.New()
	triples, err := turtle.Parse(peopleData, turtle.Options{Base: "http://example.org/doc"})
	if err != nil {
		t.Fatal(err)
	}
	src.AddDocument("http://example.org/doc", triples)
	src.Close()

	q, _ := sparql.ParseQuery(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?n WHERE { ?p foaf:name ?n }`)
	op, _ := algebra.Translate(q)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			n := 0
			for range Eval(ctx, op, NewEnv(src)) {
				n++
			}
			done <- n
		}()
	}
	for i := 0; i < 8; i++ {
		if n := <-done; n != 4 {
			t.Errorf("concurrent run %d: %d results", i, n)
		}
	}
}

func TestGraphProvenanceAtExecLevel(t *testing.T) {
	// Two documents contribute triples; GRAPH must separate them.
	src := store.New()
	d1 := rdf.NewIRI("http://example.org/doc1")
	d2 := rdf.NewIRI("http://example.org/doc2")
	p := rdf.NewIRI("http://example.org/p")
	src.Add(rdf.NewTriple(rdf.NewIRI("http://a"), p, rdf.NewLiteral("from1")), d1)
	src.Add(rdf.NewTriple(rdf.NewIRI("http://b"), p, rdf.NewLiteral("from2")), d2)
	src.Close()

	// Variable graph binds provenance.
	got := runQueryOn(t, src, `
PREFIX ex: <http://example.org/>
SELECT ?s ?g WHERE { GRAPH ?g { ?s ex:p ?v } }`)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	byS := map[string]string{}
	for _, b := range got {
		byS[b["s"].Value] = b["g"].Value
	}
	if byS["http://a"] != d1.Value || byS["http://b"] != d2.Value {
		t.Errorf("provenance = %v", byS)
	}

	// Constant graph restricts.
	got = runQueryOn(t, src, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { GRAPH <http://example.org/doc2> { ?s ex:p ?v } }`)
	if len(got) != 1 || got[0]["s"].Value != "http://b" {
		t.Errorf("restricted = %v", got)
	}

	// GRAPH inside EXISTS (snapshot path).
	got = runQueryOn(t, src, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE {
  ?s ex:p ?v
  FILTER EXISTS { GRAPH <http://example.org/doc1> { ?s ex:p ?v } }
}`)
	if len(got) != 1 || got[0]["s"].Value != "http://a" {
		t.Errorf("exists graph = %v", got)
	}

	// Shared graph variable joins triples from the same document.
	src2 := store.New()
	src2.Add(rdf.NewTriple(rdf.NewIRI("http://x"), p, rdf.NewLiteral("1")), d1)
	src2.Add(rdf.NewTriple(rdf.NewIRI("http://x"), rdf.NewIRI("http://example.org/q"), rdf.NewLiteral("2")), d2)
	src2.Close()
	got = runQueryOn(t, src2, `
PREFIX ex: <http://example.org/>
SELECT ?g WHERE { GRAPH ?g { ?s ex:p ?v . ?s ex:q ?w } }`)
	if len(got) != 0 {
		t.Errorf("cross-document join inside one GRAPH should be empty: %v", got)
	}
}

// TestGroupKeysKeepUnboundPositions pins that an unbound key position does
// not shift the others: (UNDEF, x) and (x, UNDEF) are two groups, on the
// columnar path and on groupRows (forced by HAVING) alike.
func TestGroupKeysKeepUnboundPositions(t *testing.T) {
	for _, having := range []string{"", "HAVING (COUNT(*) > 0)"} {
		got := runQuery(t, `@prefix ex: <http://example.org/> . ex:a ex:p ex:b .`, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b (COUNT(*) AS ?n) WHERE {
  VALUES (?a ?b) { (UNDEF ex:x) (ex:x UNDEF) (ex:x UNDEF) }
} GROUP BY ?a ?b `+having)
		if len(got) != 2 {
			t.Fatalf("%q: %d groups, want 2: %v", having, len(got), got)
		}
		for _, b := range got {
			want := "1"
			if _, ok := b["a"]; ok {
				want = "2"
			}
			if b["n"].Value != want {
				t.Errorf("%q: group %v counts %s rows, want %s", having, b, b["n"].Value, want)
			}
		}
	}
}
