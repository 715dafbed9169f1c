package exec

import (
	"context"
	"runtime/debug"
	"strings"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/obs"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/solidbench"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// TestDistinctChainRunsWithoutJoins plans Discover 8.1 as the complex_exec
// workload does and runs it traced over the closed 12-person store: the
// join chain around its (hasPost|hasComment) alternative runs as one scan
// per alternative under a union, with no join, and gives the reference's
// 2 011 answers.
func TestDistinctChainRunsWithoutJoins(t *testing.T) {
	st, ds := solidBenchStore()
	parsed, err := sparql.ParseQuery(ds.Discover(8, 1).Text)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	op = plan.New(parsed.MentionedIRIs()).Optimize(op)
	ctx, trace := obs.NewTrace(context.Background(), "query")
	got := collect(Eval(ctx, op, NewEnv(st)))
	trace.End()
	if joins, scans := trace.Root().Count("join"), trace.Root().Count("scan"); joins != 0 || scans != 2 {
		t.Errorf("%d joins and %d scans, want none and one per alternative:\n%s", joins, scans, trace.Tree())
	}
	vars := parsed.ProjectedVars()
	want := canon(vars, Reference(op, NewEnv(st)))
	if len(want) != 2011 {
		t.Fatalf("the reference gives %d answers, want 2011", len(want))
	}
	checkRows(t, "Discover 8.1", want, canon(vars, got))
}

// TestDistinctFilterReadsItsVariables runs SELECT DISTINCT ?c over
// (?a p ?b) (?b q ?c) FILTER(?a != a1), where the first like of b1 is a1's:
// the filter reads ?a, so the chain must not skip a2's row as a repeat of
// a1's on ?b, or the one answer is lost.
func TestDistinctFilterReadsItsVariables(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	st := store.New()
	for _, tr := range [][3]string{{"a1", "p", "b1"}, {"a2", "p", "b1"}, {"b1", "q", "c1"}, {"b8", "q", "c8"}, {"b9", "q", "c9"}} {
		st.Add(rdf.NewTriple(ex(tr[0]), ex(tr[1]), ex(tr[2])), ex("doc"))
	}
	st.Close()
	a, b, c := rdf.NewVar("a"), rdf.NewVar("b"), rdf.NewVar("c")
	op := algebra.Distinct{Input: algebra.Project{Names: []string{"c"}, Input: algebra.Filter{
		Expr: sparql.ExprBinary{Op: "!=", L: sparql.ExprVar{Name: "a"}, R: sparql.ExprTerm{Term: ex("a1")}},
		Input: algebra.Join{
			Left:  algebra.Pattern{Triple: rdf.NewTriple(a, ex("p"), b)},
			Right: algebra.Pattern{Triple: rdf.NewTriple(b, ex("q"), c)},
		},
	}}}
	got := collect(Eval(context.Background(), op, NewEnv(st)))
	if len(got) != 1 || got[0]["c"] != ex("c1") {
		t.Errorf("answers %v, want ?c = c1", got)
	}
}

// TestExistsRunsOpenNoSpans traces a NOT EXISTS filter over the closed
// 12-person store: its pattern runs once per row, and none of those runs
// adds a span to the query's trace.
func TestExistsRunsOpenNoSpans(t *testing.T) {
	st, _ := solidBenchStore()
	op := testPlan(t, `SELECT ?m WHERE {
  ?m <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t
  FILTER NOT EXISTS { ?m <http://example.org/none> ?x }
}`)
	ctx, trace := obs.NewTrace(context.Background(), "query")
	n := len(collect(Eval(ctx, op, NewEnv(st))))
	trace.End()
	if scans := trace.Root().Count("scan"); n == 0 || scans != 1 {
		t.Errorf("%d rows and %d scan spans, want rows and one scan span, the outer pattern's", n, scans)
	}
}

// TestPooledIndexChargesItsOwnFill: over a store that is still growing, a
// basic graph pattern files its matches in pooled indexes, and the ledger
// charges each query what it filled, not the capacity an earlier query grew
// them to: Complex 1 charges exec the same bytes alone and after Discover
// 8.1. (The bytes charged in all, not the peak: how many batches are in
// flight at the peak depends on scheduling.)
func TestPooledIndexChargesItsOwnFill(t *testing.T) {
	_, ds := solidBenchStore()
	queries := []string{complex1(ds), ds.Discover(8, 1).Text, complex1(ds)}
	stores := make([]*store.Store, len(queries))
	for i := range stores {
		stores[i] = openStore(ds)
	}
	// No collection while the queries run: it would empty the pool between
	// them, and each would start from fresh indexes.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	charged := make([]int64, len(queries))
	for i, query := range queries {
		env := NewEnv(stores[i])
		env.Ledger = resource.New(1, "", 0)
		rows := Eval(context.Background(), workloadPlan(t, query), env)
		stores[i].Close() // after the operators saw the store open
		if len(collect(rows)) == 0 {
			t.Fatalf("no answers to %s", query)
		}
		charged[i] = env.Ledger.ChargedBy(resource.Exec)
	}
	if charged[2] != charged[0] {
		t.Errorf("Complex 1 charged exec %d bytes after Discover 8.1, %d alone", charged[2], charged[0])
	}
}

// TestLimitChargesTheSameEveryRun runs Complex 1 (ORDER BY, a projection,
// LIMIT 20) twelve times over the closed store and wants exec charged the
// same bytes in every run: the projection forwards ORDER BY's batches
// instead of building its own, so how far LIMIT's cancellation has got when
// ORDER BY's second batch arrives does not change the charge.
func TestLimitChargesTheSameEveryRun(t *testing.T) {
	st, ds := solidBenchStore()
	op := workloadPlan(t, complex1(ds))
	var first int64
	for i := 0; i < 12; i++ {
		env := NewEnv(st)
		env.Ledger = resource.New(1, "", 0)
		if n := len(collect(Eval(context.Background(), op, env))); n != 20 {
			t.Fatalf("run %d: %d answers, want 20", i, n)
		}
		charged := env.Ledger.ChargedBy(resource.Exec)
		if i == 0 {
			first = charged
		} else if charged != first {
			t.Fatalf("run %d charged exec %d bytes, the first run %d", i, charged, first)
		}
	}
}

// workloadPlan plans a query as the complex_exec workload does.
func workloadPlan(t *testing.T, query string) algebra.Operator {
	t.Helper()
	parsed, err := sparql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return plan.New(parsed.MentionedIRIs()).Optimize(op)
}

// complex1 returns the text of Complex 1 over ds.
func complex1(ds *solidbench.Dataset) string {
	for _, q := range ds.ComplexQueries() {
		if strings.HasPrefix(q.Name, "Complex 1:") {
			return q.Text
		}
	}
	panic("no Complex 1")
}
