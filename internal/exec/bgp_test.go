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
	op := algebra.Distinct{Input: algebra.Project{Items: []sparql.SelectItem{{Var: "c"}}, Input: algebra.Filter{
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

// TestPooledIndexChargesItsOwnFill: over a store that is still growing, a
// basic graph pattern files its matches in pooled indexes, and the ledger
// charges each query what it filled, not the capacity an earlier query grew
// them to: Complex 1's join chain charges exec the same bytes alone and
// after Discover 8.1. (The chain, not the whole query, and the bytes charged
// in all, not the peak: how many batches are in flight at the peak, and how
// many the ORDER BY sends before LIMIT cancels it, depend on scheduling.)
func TestPooledIndexChargesItsOwnFill(t *testing.T) {
	_, ds := solidBenchStore()
	var complex1 string
	for _, q := range ds.ComplexQueries() {
		if strings.HasPrefix(q.Name, "Complex 1:") {
			complex1 = q.Text
		}
	}
	plans := make([]algebra.Operator, 3)
	for i, query := range []string{complex1, ds.Discover(8, 1).Text, complex1} {
		parsed, err := sparql.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		op, err := algebra.Translate(parsed)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = plan.New(parsed.MentionedIRIs()).Optimize(op)
	}
	// slice(project(orderby(join(...)))): keep Complex 1's join chain.
	for _, i := range []int{0, 2} {
		plans[i] = plans[i].(algebra.Slice).Input.(algebra.Project).Input.(algebra.OrderBy).Input
	}
	stores := make([]*store.Store, len(plans))
	for i := range stores {
		stores[i] = openStore(ds)
	}
	// No collection while the queries run: it would empty the pool between
	// them, and each would start from fresh indexes.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	charged := make([]int64, len(plans))
	for i, op := range plans {
		env := NewEnv(stores[i])
		env.Ledger = resource.New(1, "", 0)
		rows := Eval(context.Background(), op, env)
		stores[i].Close() // after the operators saw the store open
		if len(collect(rows)) == 0 {
			t.Fatalf("no answers to %s", algebra.String(op))
		}
		charged[i] = env.Ledger.ChargedBy(resource.Exec)
	}
	if charged[2] != charged[0] {
		t.Errorf("Complex 1's join chain charged exec %d bytes after Discover 8.1, %d alone", charged[2], charged[0])
	}
}
