package exec

import (
	"context"
	"fmt"
	"runtime"
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
	st := store.New()
	env := NewEnv(st)
	env.Ledger = resource.New(1, "", 0)
	op := testPlan(t, "PREFIX ex: <http://example.org/>\nSELECT ?s ?v WHERE { ?s ex:p ?v FILTER EXISTS { ?s ex:q ?w } }")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := Eval(ctx, op, env)
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
	for range rows {
		n++
	}
	if n != docs/2 {
		t.Fatalf("rows = %d, want %d", n, docs/2)
	}
	decoded := int64(docs) * (64 + 2*96) // chargeBuffered's estimate per row
	if peak, bound := env.Ledger.PeakBy(resource.Exec), decoded+16*slab; peak > bound {
		t.Errorf("exec peak %d bytes over %d one-row batches, want <= %d", peak, docs, bound)
	}
	if cur := env.Ledger.CurrentBy(resource.Exec); cur != 0 {
		t.Errorf("ledger holds %d exec bytes after the query", cur)
	}
}
