package exec

import (
	"context"
	"reflect"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// provStore builds a closed store whose three patterns each come from a
// different document, so join provenance is fully predictable.
func provStore() *store.Store {
	s := store.New()
	m := rdf.NewIRI("http://example.org/m1")
	s.Add(rdf.NewTriple(m, rdf.NewIRI("http://v/hasCreator"), rdf.NewIRI("http://example.org/alice")), rdf.NewIRI("http://pod/a.ttl"))
	s.Add(rdf.NewTriple(m, rdf.NewIRI("http://v/content"), rdf.NewLiteral("hello")), rdf.NewIRI("http://pod/b.ttl"))
	s.Add(rdf.NewTriple(m, rdf.NewIRI("http://v/id"), rdf.Long(1)), rdf.NewIRI("http://pod/c.ttl"))
	s.Close()
	return s
}

func testPlan(t *testing.T, query string) algebra.Operator {
	t.Helper()
	q, err := sparql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan.New(nil).Optimize(op)
}

const provQuery = `
SELECT ?m ?c ?id WHERE {
  ?m <http://v/hasCreator> <http://example.org/alice> .
  ?m <http://v/content> ?c .
  ?m <http://v/id> ?id .
}`

// TestJoinProvenanceExact pins the tentpole contract: a solution joined
// from triples of three documents carries exactly those three documents,
// also through ORDER BY, which holds rows as ID columns.
func TestJoinProvenanceExact(t *testing.T) {
	for _, query := range []string{provQuery, provQuery + " ORDER BY DESC(?c) LIMIT 5"} {
		joinProvenanceExact(t, query)
	}
}

func joinProvenanceExact(t *testing.T, query string) {
	s := provStore()
	env := NewEnv(s)
	env.Prov = NewProv()

	var rows []rdf.Binding
	for b := range Eval(context.Background(), testPlan(t, query), env) {
		rows = append(rows, b)
	}
	if len(rows) != 1 {
		t.Fatalf("results = %d, want 1", len(rows))
	}
	want := []string{"http://pod/a.ttl", "http://pod/b.ttl", "http://pod/c.ttl"}
	if got := rows[0].Sources(); !reflect.DeepEqual(got, want) {
		t.Errorf("sources = %v, want %v", got, want)
	}
	// Projection kept the real variables too.
	if got := rows[0].Vars(); !reflect.DeepEqual(got, []string{"c", "id", "m"}) {
		t.Errorf("vars = %v", got)
	}

	// The sink tallied one match per document.
	contrib := env.Prov.Contributions()
	if len(contrib) != 3 {
		t.Fatalf("contributions = %+v", contrib)
	}
	for _, c := range contrib {
		if c.Matches != 1 {
			t.Errorf("contribution %s = %d matches, want 1", c.Document, c.Matches)
		}
	}
}

// TestProvenanceDisabled pins the opt-out: with a nil sink no solution
// carries sources.
func TestProvenanceDisabled(t *testing.T) {
	s := provStore()
	env := NewEnv(s) // env.Prov stays nil
	for b := range Eval(context.Background(), testPlan(t, provQuery), env) {
		if b.HasSources() {
			t.Errorf("provenance-disabled run produced sources: %v", b.Sources())
		}
	}
}

// TestAggregateProvenanceUnion: an aggregate row descends from every row of
// its group, so its provenance is the union of theirs.
func TestAggregateProvenanceUnion(t *testing.T) {
	s := store.New()
	creator := rdf.NewIRI("http://example.org/alice")
	p := rdf.NewIRI("http://v/hasCreator")
	s.Add(rdf.NewTriple(rdf.NewIRI("http://example.org/m1"), p, creator), rdf.NewIRI("http://pod/a.ttl"))
	s.Add(rdf.NewTriple(rdf.NewIRI("http://example.org/m2"), p, creator), rdf.NewIRI("http://pod/b.ttl"))
	s.Close()

	env := NewEnv(s)
	env.Prov = NewProv()
	op := testPlan(t, `
SELECT ?creator (COUNT(?m) AS ?n) WHERE {
  ?m <http://v/hasCreator> ?creator .
} GROUP BY ?creator`)

	var rows []rdf.Binding
	for b := range Eval(context.Background(), op, env) {
		rows = append(rows, b)
	}
	if len(rows) != 1 {
		t.Fatalf("groups = %d, want 1", len(rows))
	}
	want := []string{"http://pod/a.ttl", "http://pod/b.ttl"}
	if got := rows[0].Sources(); !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate sources = %v, want %v", got, want)
	}
}

// TestMinusIgnoresProvenance: provenance pseudo-variables must not create
// spurious domain overlap between MINUS operands.
func TestMinusIgnoresProvenance(t *testing.T) {
	s := store.New()
	s.Add(rdf.NewTriple(rdf.NewIRI("http://example.org/m1"), rdf.NewIRI("http://v/id"), rdf.Long(1)), rdf.NewIRI("http://pod/a.ttl"))
	s.Add(rdf.NewTriple(rdf.NewIRI("http://example.org/other"), rdf.NewIRI("http://v/tag"), rdf.NewLiteral("x")), rdf.NewIRI("http://pod/a.ttl"))
	s.Close()

	env := NewEnv(s)
	env.Prov = NewProv()
	// Disjoint domains (?m/?id vs ?o/?t): MINUS must keep every left row
	// even though both sides carry the same provenance pseudo-variable.
	op := testPlan(t, `
SELECT ?m WHERE {
  ?m <http://v/id> ?id .
  MINUS { ?o <http://v/tag> ?t . }
}`)
	n := 0
	for range Eval(context.Background(), op, env) {
		n++
	}
	if n != 1 {
		t.Errorf("MINUS with disjoint domains dropped rows: %d results, want 1", n)
	}
}

// BenchmarkStarJoinProvenance measures the provenance-enabled pipeline;
// compare against BenchmarkStarJoinPipeline (the disabled path) for the
// opt-in cost. The disabled path itself must not regress: it performs the
// same allocations as before the provenance layer existed.
func BenchmarkStarJoinProvenance(b *testing.B) {
	s := benchStore(2000)
	op := benchPlan(b, `
SELECT ?m ?c ?id WHERE {
  ?m <http://v/hasCreator> <http://example.org/u3> .
  ?m <http://v/content> ?c .
  ?m <http://v/id> ?id .
}`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := NewEnv(s)
		env.Prov = NewProv()
		n := 0
		for range Eval(ctx, op, env) {
			n++
		}
		if n != 100 {
			b.Fatalf("results = %d", n)
		}
	}
}
