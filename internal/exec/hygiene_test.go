package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/store"
)

// hygieneStore holds enough rows that every operator sees several batches:
// 3000 subjects with an integer ex:p, every other one an ex:q, a 40-hop
// ex:next chain, spread over four documents.
func hygieneStore(closed bool) *store.Store {
	st := store.New()
	ex := "http://example.org/"
	docs := make([][]rdf.Triple, 4)
	for i := 0; i < 3000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", ex, i))
		ts := []rdf.Triple{rdf.NewTriple(s, rdf.NewIRI(ex+"p"), rdf.Integer(int64(i)))}
		if i%2 == 0 {
			ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(ex+"q"), rdf.Integer(int64(i%10))))
		}
		if i < 40 {
			ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(ex+"next"), rdf.NewIRI(fmt.Sprintf("%ss%d", ex, i+1))))
		}
		docs[i%4] = append(docs[i%4], ts...)
	}
	for d, ts := range docs {
		st.AddDocument(fmt.Sprintf("%sdoc%d", ex, d), ts)
	}
	if closed {
		st.Close()
	}
	return st
}

// TestOperatorsLeaveNothingBehind runs every operator that materialises or
// stops early — to completion, cancelled mid-stream over a store that never
// closes, and cut short by LIMIT 1 — and requires that afterwards no
// pipeline goroutine is left and the ledger's exec bytes are back to zero.
func TestOperatorsLeaveNothingBehind(t *testing.T) {
	queries := map[string]string{
		"leftjoin": `SELECT ?s ?v ?w WHERE { ?s ex:p ?v OPTIONAL { ?s ex:q ?w FILTER(?w > 5) } }`,
		"minus":    `SELECT ?s WHERE { ?s ex:p ?v MINUS { ?s ex:q ?w } }`,
		"orderby":  `SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY DESC(?v)`,
		"slice":    `SELECT ?s WHERE { ?s ex:p ?v } OFFSET 7 LIMIT 2500`,
		"values":   `SELECT ?s ?v WHERE { VALUES ?s { ex:s1 ex:s2 ex:s3 } ?s ex:p ?v }`,
		"graph":    `SELECT ?s ?g WHERE { GRAPH ?g { ?s ex:p ?v } }`,
		"exists":   `SELECT ?s WHERE { ?s ex:p ?v FILTER EXISTS { ?s ex:q ?w } }`,
		"path":     `SELECT ?o WHERE { ex:s0 ex:next+ ?o }`,
		"group":    `SELECT ?w (GROUP_CONCAT(?v) AS ?c) WHERE { ?s ex:q ?w . ?s ex:p ?v } GROUP BY ?w`,
	}
	closed, open := hygieneStore(true), hygieneStore(false)
	defer open.Close()
	for name, q := range queries {
		op := testPlan(t, "PREFIX ex: <http://example.org/>\n"+q)
		run := func(mode string, st *store.Store, op algebra.Operator, stopAfterFirst bool) {
			t.Helper()
			base := runtime.NumGoroutine()
			env := NewEnv(st)
			env.Prov = NewProv()
			env.Ledger = resource.New(1, "", 0)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rows := Eval(ctx, op, env)
			n := 0
			if stopAfterFirst {
				select {
				case _, ok := <-rows:
					if ok {
						n++
					}
				case <-time.After(20 * time.Millisecond): // blocking: nothing yet
				}
				cancel()
			}
			for range rows {
				n++
			}
			if mode != "cancelled" && n == 0 {
				t.Errorf("%s %s: no rows", name, mode)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > base {
				t.Errorf("%s %s: %d goroutines left over (baseline %d)", name, mode, g-base, base)
			}
			if cur := env.Ledger.CurrentBy(resource.Exec); cur != 0 {
				t.Errorf("%s %s: ledger holds %d exec bytes after the query", name, mode, cur)
			}
		}
		run("completed", closed, op, false)
		run("cancelled", open, op, true)
		run("limited", closed, algebra.Slice{Input: op, Limit: 1}, false)
	}
}

// TestExistsFilterHoldsRowsNotBatches feeds an EXISTS filter one-row
// batches during traversal — one document per scan wake-up — and bounds the
// ledger's exec peak by the decoded rows plus a few in-flight batches: the
// filter must not keep a whole batch slab per arrival while it waits for
// the store to close.
func TestExistsFilterHoldsRowsNotBatches(t *testing.T) {
	const docs = 500
	decoded := int64(docs) * (64 + 2*96) // chargeBuffered's estimate per row
	holdsRowsNotBatches(t, "SELECT ?s ?v WHERE { ?s ex:p ?v FILTER EXISTS { ?s ex:q ?w } }", docs, docs/2, decoded)
}

// TestOrderByHoldsRowsNotBatches is the same check for ORDER BY, which
// holds each row as ID columns plus one parsed sort key per condition: it
// must charge them while it sorts, and nothing once it has finished.
func TestOrderByHoldsRowsNotBatches(t *testing.T) {
	const docs = 500
	held := int64(docs) * (2*termIDBytes + valueBytes + 4) // ?s ?v, one key, a permutation entry
	holdsRowsNotBatches(t, "SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY DESC(?v)", docs, docs, held)
}

// TestOrderByExistsKeyWaitsForStore sorts on an EXISTS key whose triples
// arrive in a later document than the rows: like FILTER EXISTS, ORDER BY
// must evaluate the key over the closed store, so the answer equals the
// reference's over the final store.
func TestOrderByExistsKeyWaitsForStore(t *testing.T) {
	st := store.New()
	env := NewEnv(st)
	env.Ledger = resource.New(1, "", 0)
	op := testPlan(t, `PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY DESC(EXISTS { ?s ex:q ?w }) ?v`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := Eval(ctx, op, env)
	ex := "http://example.org/"
	var rows, later []rdf.Triple
	for i := 0; i < 20; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", ex, i))
		rows = append(rows, rdf.NewTriple(s, rdf.NewIRI(ex+"p"), rdf.Integer(int64(i))))
		if i%2 == 1 {
			later = append(later, rdf.NewTriple(s, rdf.NewIRI(ex+"q"), rdf.Integer(1)))
		}
	}
	st.AddDocument(ex+"rows", rows)
	// Let ORDER BY take in the rows before their ex:q triples arrive.
	for env.Ledger.ChargedBy(resource.Exec) == 0 && ctx.Err() == nil {
		time.Sleep(10 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	st.AddDocument(ex+"later", later)
	st.Close()
	vars := []string{"s", "v"}
	got := render(vars, collect(out))
	if want := render(vars, Reference(op, env)); !slices.Equal(got, want) {
		t.Fatalf("got  %v\nwant %v", sample(got), sample(want))
	}
	if len(got) != 20 || got[0] != render(vars, []rdf.Binding{{"s": rdf.NewIRI(ex + "s1"), "v": rdf.Integer(1)}})[0] {
		t.Fatalf("want the 20 rows led by s1, the first with an ex:q: %v", got)
	}
}

// holdsRowsNotBatches runs query while docs documents arrive one per scan
// wake-up, each with one ex:p triple and every other one an ex:q triple.
// It wants rows results, an exec peak of at least held bytes and at most
// held plus a few in-flight batches, and no exec bytes left afterwards.
func holdsRowsNotBatches(t *testing.T, query string, docs, rows int, held int64) {
	t.Helper()
	st := store.New()
	env := NewEnv(st)
	env.Ledger = resource.New(1, "", 0)
	op := testPlan(t, "PREFIX ex: <http://example.org/>\n"+query)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := Eval(ctx, op, env)
	slab := int64(2 * batchCap * termIDBytes) // one ?s ?v batch
	go func() {
		defer st.Close()
		ex := "http://example.org/"
		for i := 0; i < docs; i++ {
			s := rdf.NewIRI(fmt.Sprintf("%ss%d", ex, i))
			ts := []rdf.Triple{rdf.NewTriple(s, rdf.NewIRI(ex+"p"), rdf.Integer(int64(i)))}
			if i%2 == 0 {
				ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(ex+"q"), rdf.Integer(1)))
			}
			before := env.Ledger.ChargedBy(resource.Exec)
			st.AddDocument(fmt.Sprintf("%sdoc%d", ex, i), ts)
			// Wait for the scan to turn this document into its own batch.
			for env.Ledger.ChargedBy(resource.Exec) == before && ctx.Err() == nil {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	n := 0
	for range out {
		n++
	}
	if n != rows {
		t.Fatalf("rows = %d, want %d", n, rows)
	}
	peak := env.Ledger.PeakBy(resource.Exec)
	if bound := held + 16*slab; peak > bound {
		t.Errorf("exec peak %d bytes over %d one-row batches, want <= %d", peak, docs, bound)
	}
	if peak < held {
		t.Errorf("exec peak %d bytes, want >= the %d bytes of held rows", peak, held)
	}
	if cur := env.Ledger.CurrentBy(resource.Exec); cur != 0 {
		t.Errorf("ledger holds %d exec bytes after the query", cur)
	}
}

// TestBGPIsOneGoroutine runs a 4-pattern basic graph pattern over a store
// that stays open: once it has emitted what the store holds and blocks for
// more, it runs on exactly one goroutine (a scan per pattern and a join per
// pair ran on seven), and after cancellation none is left and the ledger's
// exec bytes are back to zero.
func TestBGPIsOneGoroutine(t *testing.T) {
	st := hygieneStore(false)
	defer st.Close()
	op := testPlan(t, `PREFIX ex: <http://example.org/>
SELECT * WHERE { ?s ex:p ?v . ?s ex:q ?w . ?s ex:next ?n . ?n ex:p ?x }`)
	if pats, ok := bgpPatterns(op, nil); !ok || len(pats) != 4 {
		t.Fatalf("plan %s is not a 4-pattern BGP", algebra.String(op))
	}
	env := NewEnv(st)
	env.Ledger = resource.New(1, "", 0)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := EvalBatch(ctx, op, env)
	rows := 0
	for done := false; !done; {
		select {
		case b := <-out:
			rows += b.Len()
			putBatch(b)
		case <-time.After(50 * time.Millisecond): // blocked on the open store
			done = true
		}
	}
	if rows != 20 {
		t.Errorf("rows = %d, want 20", rows)
	}
	if g := runtime.NumGoroutine() - base; g != 1 {
		t.Errorf("a blocked 4-pattern BGP runs on %d goroutines, want 1", g)
	}
	cancel()
	for b := range out {
		putBatch(b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine() - base; g > 0 {
		t.Errorf("%d goroutines left after cancellation", g)
	}
	if cur := env.Ledger.CurrentBy(resource.Exec); cur != 0 {
		t.Errorf("ledger holds %d exec bytes after cancellation", cur)
	}
}
