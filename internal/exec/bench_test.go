package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/solidbench"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// benchStore builds a closed store with a star-join-friendly shape.
func benchStore(n int) *store.Store {
	s := store.New()
	doc := rdf.NewIRI("http://example.org/doc")
	for i := 0; i < n; i++ {
		msg := rdf.NewIRI(fmt.Sprintf("http://example.org/m%d", i))
		creator := rdf.NewIRI(fmt.Sprintf("http://example.org/u%d", i%20))
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/hasCreator"), creator), doc)
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/content"), rdf.NewLiteral(fmt.Sprintf("content %d", i))), doc)
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/id"), rdf.Long(int64(i))), doc)
	}
	s.Close()
	return s
}

func benchPlan(b *testing.B, query string) algebra.Operator {
	b.Helper()
	q, err := sparql.ParseQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		b.Fatal(err)
	}
	return plan.New(nil).Optimize(op)
}

func BenchmarkStarJoinPipeline(b *testing.B) {
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
		n := 0
		for range Eval(ctx, op, NewEnv(s)) {
			n++
		}
		if n != 100 {
			b.Fatalf("results = %d", n)
		}
	}
}

func BenchmarkDistinctPipeline(b *testing.B) {
	s := benchStore(2000)
	op := benchPlan(b, `
SELECT DISTINCT ?creator WHERE {
  ?m <http://v/hasCreator> ?creator .
}`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range Eval(ctx, op, NewEnv(s)) {
			n++
		}
		if n != 20 {
			b.Fatalf("results = %d", n)
		}
	}
}

func BenchmarkAggregationPipeline(b *testing.B) {
	s := benchStore(2000)
	op := benchPlan(b, `
SELECT ?creator (COUNT(?m) AS ?n) WHERE {
  ?m <http://v/hasCreator> ?creator .
} GROUP BY ?creator`)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range Eval(ctx, op, NewEnv(s)) {
			n++
		}
		if n != 20 {
			b.Fatalf("groups = %d", n)
		}
	}
}

func BenchmarkFilterRegexPipeline(b *testing.B) {
	s := benchStore(2000)
	op := benchPlan(b, `
SELECT ?m WHERE {
  ?m <http://v/content> ?c .
  FILTER(REGEX(?c, "content 1[0-9]$"))
}`)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range Eval(ctx, op, NewEnv(s)) {
			n++
		}
		if n != 10 {
			b.Fatalf("results = %d", n)
		}
	}
}

func BenchmarkExpressionEval(b *testing.B) {
	q, err := sparql.ParseQuery(`SELECT ?x WHERE { ?x ?p ?o FILTER(STRLEN(STR(?o)) * 2 + 1 > 10 && CONTAINS(STR(?o), "en")) }`)
	if err != nil {
		b.Fatal(err)
	}
	var expr sparql.Expression
	for _, e := range q.Where.Elements {
		if f, ok := e.(sparql.FilterPattern); ok {
			expr = f.Expr
		}
	}
	env := NewEnv(store.New())
	binding := rdf.Binding{"o": rdf.NewLiteral("some content here")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evalExpr(env, expr, binding); err != nil {
			b.Fatal(err)
		}
	}
}

// messageStore builds a closed store of n messages, each with an id, a
// creation dateTime (a minute apart, in shuffled order) and a creator that
// points back at it.
func messageStore(n int) *store.Store {
	s := store.New()
	doc := rdf.NewIRI("http://example.org/doc")
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		msg := rdf.NewIRI(fmt.Sprintf("http://example.org/m%d", i))
		creator := rdf.NewIRI(fmt.Sprintf("http://example.org/u%d", i%20))
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/id"), rdf.Long(int64(i))), doc)
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/date"), rdf.DateTime(start.Add(time.Duration(i*7919%n)*time.Minute))), doc)
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/hasCreator"), creator), doc)
		s.Add(rdf.NewTriple(creator, rdf.NewIRI("http://v/wrote"), msg), doc)
	}
	s.Close()
	return s
}

// BenchmarkOrderByLimitPipeline is Complex 1's tail: newest 20 of 5 000
// joined rows by dateTime, ties by id.
func BenchmarkOrderByLimitPipeline(b *testing.B) {
	s := messageStore(5000)
	op := benchPlan(b, `
SELECT ?m ?id ?date WHERE {
  ?m <http://v/id> ?id .
  ?m <http://v/date> ?date .
} ORDER BY DESC(?date) ?id LIMIT 20`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range Eval(ctx, op, NewEnv(s)) {
			n++
		}
		if n != 20 {
			b.Fatalf("results = %d", n)
		}
	}
}

// BenchmarkTwoVarJoinPipeline joins on two shared variables, the key width
// the join table packs into one word. It reads the ID batches, so no row
// is decoded and the allocations are the join's.
func BenchmarkTwoVarJoinPipeline(b *testing.B) {
	s := messageStore(5000)
	op := benchPlan(b, `
SELECT ?m ?u WHERE {
  ?m <http://v/hasCreator> ?u .
  ?u <http://v/wrote> ?m .
}`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for batch := range EvalBatch(ctx, op, NewEnv(s)) {
			n += batch.Len()
			putBatch(batch)
		}
		if n != 5000 {
			b.Fatalf("results = %d", n)
		}
	}
}

// solidBenchStore builds the closed store of a 12-person SolidBench
// dataset, every document attached once with its blank nodes scoped to it,
// as dereferencing scopes them (every pod's likes are _:like1, _:like2,
// ...): the store the complex_exec workload queries.
func solidBenchStore() (*store.Store, *solidbench.Dataset) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	ds := solidbench.Generate(cfg)
	st := openStore(ds)
	st.Close()
	return st, ds
}

// openStore holds every document of ds in a store that is still open, as a
// traversal's is until it ends.
func openStore(ds *solidbench.Dataset) *store.Store {
	st := store.New()
	doc := 0
	for _, pod := range ds.BuildPods() {
		for path, d := range pod.Materialize() {
			doc++
			scope := func(t rdf.Term) rdf.Term {
				if t.Kind == rdf.TermBlank {
					return rdf.NewBlank(fmt.Sprintf("d%d.%s", doc, t.Value))
				}
				return t
			}
			var ts []rdf.Triple
			for _, t := range d.Graph.Triples() {
				ts = append(ts, rdf.NewTriple(scope(t.S), t.P, scope(t.O)))
			}
			st.AddDocument(pod.IRI(path), ts)
		}
	}
	return st
}

// benchRows evaluates op over st b.N times and fails unless every run
// yields want rows (want < 0: any but none).
func benchRows(b *testing.B, st *store.Store, op algebra.Operator, want int) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for batch := range EvalBatch(ctx, op, NewEnv(st)) {
			n += batch.Len()
			putBatch(batch)
		}
		if n == 0 || want >= 0 && n != want {
			b.Fatalf("%d solutions, want %d", n, want)
		}
	}
}

// BenchmarkBGPClosed evaluates the basic graph pattern of Complex 1 (a
// person's friends, their messages, and each message's id and date) over
// the closed store of a 12-person SolidBench dataset, as the complex_exec
// workload does: one operator, probing the store's own postings.
func BenchmarkBGPClosed(b *testing.B) {
	st, ds := solidBenchStore()
	var bgp algebra.Operator
	for _, q := range ds.ComplexQueries() {
		if strings.HasPrefix(q.Name, "Complex 1:") {
			bgp = benchPlan(b, q.Text)
		}
	}
	// slice(project(orderby(join(...)))): keep the join chain.
	bgp = bgp.(algebra.Slice).Input.(algebra.Project).Input.(algebra.OrderBy).Input
	benchRows(b, st, bgp, -1)
}

// BenchmarkDistinctChain evaluates Discover 8.1 (the creators of the
// messages a person likes, and every message of theirs, DISTINCT on
// creator and content) over the same closed store, as the complex_exec
// workload does: the join chain around its (hasPost|hasComment) alternative
// is one operator per alternative, deduplicating the creators before the
// fan-out to their messages.
func BenchmarkDistinctChain(b *testing.B) {
	st, ds := solidBenchStore()
	benchRows(b, st, benchPlan(b, ds.Discover(8, 1).Text), 2011)
}
