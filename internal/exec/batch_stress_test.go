package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// Stress suite for the vectorized pipeline, meant to run under -race and
// `-cpu 1,4`: the operator goroutines, the store's batch iterator, and
// traversal's concurrent AddDocument all interleave here.

func stressPlan(t *testing.T, query string) algebra.Operator {
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

// TestConcurrentAddDocumentAndQuery runs a vectorized DISTINCT join while
// documents are still being added — the traversal engine's normal mode. The
// final multiset must be exactly one row per document: a row pairing o_i
// with w_j (i != j) would be a torn tuple, a duplicate or missing row a
// DISTINCT bug under concurrency.
func TestConcurrentAddDocumentAndQuery(t *testing.T) {
	const docs = 300
	op := stressPlan(t, `SELECT DISTINCT ?s ?o ?w WHERE {
  ?s <http://v/p> ?o .
  ?s <http://v/q> ?w .
}`)
	for iter := 0; iter < 3; iter++ {
		s := store.New()
		env := NewEnv(s)
		ctx := context.Background()

		type row struct{ s, o, w string }
		results := make(chan []rdf.Binding, 1)
		go func() {
			var got []rdf.Binding
			for b := range Eval(ctx, op, env) {
				got = append(got, b)
			}
			results <- got
		}()

		for i := 0; i < docs; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i))
			s.AddDocument(fmt.Sprintf("http://example.org/doc%d", i), []rdf.Triple{
				rdf.NewTriple(subj, rdf.NewIRI("http://v/p"), rdf.NewLiteral(fmt.Sprintf("o%d", i))),
				rdf.NewTriple(subj, rdf.NewIRI("http://v/q"), rdf.NewLiteral(fmt.Sprintf("w%d", i))),
			})
		}
		s.Close()

		got := <-results
		if len(got) != docs {
			t.Fatalf("iter %d: %d DISTINCT rows, want %d", iter, len(got), docs)
		}
		seen := map[row]bool{}
		for _, b := range got {
			r := row{b["s"].Value, b["o"].Value, b["w"].Value}
			want := row{
				s: r.s,
				o: "o" + r.s[len("http://example.org/s"):],
				w: "w" + r.s[len("http://example.org/s"):],
			}
			if r != want {
				t.Fatalf("iter %d: torn tuple %+v (want %+v)", iter, r, want)
			}
			if seen[r] {
				t.Fatalf("iter %d: duplicate DISTINCT row %+v", iter, r)
			}
			seen[r] = true
		}
	}
}

// stressStore builds a deterministic store with enough rows that join
// probes and grouping span many batches.
func stressStore() *store.Store {
	r := rand.New(rand.NewSource(7))
	s := store.New()
	doc := rdf.NewIRI("http://example.org/doc")
	for i := 0; i < 4000; i++ {
		msg := rdf.NewIRI(fmt.Sprintf("http://example.org/m%d", i))
		creator := rdf.NewIRI(fmt.Sprintf("http://example.org/u%d", r.Intn(17)))
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/hasCreator"), creator), doc)
		s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/content"),
			rdf.NewLiteral(fmt.Sprintf("content %d %c", i, 'a'+rune(r.Intn(26))))), doc)
		if r.Intn(3) > 0 {
			s.Add(rdf.NewTriple(msg, rdf.NewIRI("http://v/id"), rdf.Long(int64(r.Intn(500)))), doc)
		}
	}
	s.Close()
	return s
}

// TestResultsDeterministicAcrossWorkerCounts pins that goroutine scheduling
// never leaks into results: the same query over the same store yields the
// same solution multiset at every GOMAXPROCS.
func TestResultsDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s := stressStore()
	queries := []string{
		`SELECT ?m ?c ?id WHERE {
  ?m <http://v/hasCreator> <http://example.org/u3> .
  ?m <http://v/content> ?c .
  ?m <http://v/id> ?id .
  FILTER(CONTAINS(?c, "a"))
}`,
		`SELECT DISTINCT ?u ?id WHERE {
  { ?m <http://v/hasCreator> ?u . ?m <http://v/id> ?id . }
  UNION
  { ?m <http://v/hasCreator> ?u . ?m <http://v/id> ?id . }
}`,
		`SELECT ?u (COUNT(?m) AS ?n) (MIN(?id) AS ?lo) WHERE {
  ?m <http://v/hasCreator> ?u .
  ?m <http://v/id> ?id .
} GROUP BY ?u`,
	}
	ctx := context.Background()
	for qi, query := range queries {
		op := stressPlan(t, query)
		vars := op.Vars()
		var base []string
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			env := NewEnv(s)
			got := canon(vars, collect(Eval(ctx, op, env)))
			if len(got) == 0 {
				t.Fatalf("query %d produced no rows; store shape regressed", qi)
			}
			if base == nil {
				base = got
				continue
			}
			if len(got) != len(base) {
				t.Fatalf("query %d GOMAXPROCS=%d: %d rows vs %d at GOMAXPROCS=1", qi, procs, len(got), len(base))
			}
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("query %d GOMAXPROCS=%d: row %d differs\ngot:  %s\nwant: %s",
						qi, procs, i, got[i], base[i])
				}
			}
		}
	}
}

// TestConcurrentBGPsOverClosedStore runs basic graph patterns of different
// shapes at once over one closed store that has built none of its on-demand
// indexes yet: each one's start builds the indexes its probes read while the
// others already probe theirs without the store's lock. Under -race this
// pins that those probes read nothing anyone writes; every answer must
// equal the reference's.
func TestConcurrentBGPsOverClosedStore(t *testing.T) {
	s := stressStore()
	queries := []string{
		`SELECT * WHERE { ?m <http://v/hasCreator> ?u . ?m <http://v/id> ?id . ?m <http://v/content> ?c }`,
		`SELECT * WHERE { ?m <http://v/id> ?id . ?n <http://v/id> ?id . ?n <http://v/hasCreator> <http://example.org/u3> }`,
		`SELECT * WHERE { ?m ?p <http://example.org/u5> . ?m ?q ?v }`,
		`SELECT * WHERE { ?m <http://v/hasCreator> ?u . ?m ?p ?u }`,
	}
	errs := make(chan error, len(queries))
	for _, query := range queries {
		op := stressPlan(t, query)
		go func() {
			env := NewEnv(s)
			vars := op.Vars()
			got := canon(vars, collect(Eval(context.Background(), op, env)))
			want := canon(vars, Reference(op, env))
			if len(got) == 0 || !slices.Equal(got, want) {
				errs <- fmt.Errorf("%s: %d rows, reference %d", query, len(got), len(want))
				return
			}
			errs <- nil
		}()
	}
	for range queries {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
