package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// Property-based suite pinning every vectorized operator to the reference
// semantics: for randomly generated batches with random selection vectors
// (nil, ordered-sparse, out-of-order, reversed, empty, single-row), each
// batch operator must produce the same solution multiset as Reference run
// over the flattened input — across worker counts, so morsel scheduling can
// never change results.

type propRig struct {
	r    *rand.Rand
	env  *Env // Workers swept per run; Reference ignores them
	pool []rdf.TermID
}

func newPropRig(seed int64) *propRig {
	s := store.New()
	rig := &propRig{r: rand.New(rand.NewSource(seed)), env: NewEnv(s)}
	d := s.Dict()
	for i := 0; i < 8; i++ {
		rig.pool = append(rig.pool, d.Intern(rdf.NewIRI(fmt.Sprintf("http://example.org/e%d", i))))
	}
	for _, lex := range []string{"alpha", "beta", "code", "e1", "zero"} {
		rig.pool = append(rig.pool, d.Intern(rdf.NewLiteral(lex)))
	}
	for i := 0; i < 6; i++ {
		rig.pool = append(rig.pool, d.Intern(rdf.NewTypedLiteral(strconv.Itoa(i), rdf.XSDInteger)))
	}
	return rig
}

// randBatch builds a batch over vars with n in [lo, hi] physical rows,
// random NoTerm holes, and a random selection-vector shape.
func (p *propRig) randBatch(vars []string, lo, hi int) *Batch {
	n := lo + p.r.Intn(hi-lo+1)
	b := getBatch(vars, false)
	for c := range b.cols {
		col := b.cols[c]
		for i := 0; i < n; i++ {
			if p.r.Intn(5) == 0 {
				col = append(col, rdf.NoTerm)
			} else {
				col = append(col, p.pool[p.r.Intn(len(p.pool))])
			}
		}
		b.cols[c] = col
	}
	b.n = n
	switch p.r.Intn(6) {
	case 0: // nil: all rows live
	case 1: // ordered sparse subset
		sel := b.selSlab()
		for i := 0; i < n; i++ {
			if p.r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		b.sel = sel
	case 2: // out-of-order permutation of a subset
		perm := p.r.Perm(n)
		k := p.r.Intn(n + 1)
		b.sel = append(b.selSlab(), int32sOf(perm[:k])...)
	case 3: // fully reversed order
		sel := b.selSlab()
		for i := n - 1; i >= 0; i-- {
			sel = append(sel, int32(i))
		}
		b.sel = sel
	case 4: // empty selection
		b.sel = b.selSlab()
	default: // single row
		if n > 0 {
			b.sel = append(b.selSlab(), int32(p.r.Intn(n)))
		}
	}
	return b
}

func int32sOf(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// cloneBatch deep-copies a batch so one copy can be consumed by an operator
// while the original is flattened for the reference side.
func cloneBatch(b *Batch) *Batch {
	nb := getBatch(b.vars, false)
	for c := range b.cols {
		nb.cols[c] = append(nb.cols[c], b.cols[c]...)
	}
	nb.n = b.n
	if b.sel != nil {
		nb.sel = append(nb.selSlab(), b.sel...)
	}
	return nb
}

func streamOf(batches []*Batch) BatchStream {
	out := make(chan *Batch, len(batches)+1)
	for _, b := range batches {
		out <- cloneBatch(b)
	}
	close(out)
	return out
}

// flatten decodes the batches into the reference side's input rows.
func (p *propRig) flatten(batches []*Batch) []rdf.Binding {
	var rows []rdf.Binding
	for b := range batchesToRows(context.Background(), p.env, streamOf(batches)) {
		rows = append(rows, b)
	}
	return rows
}

// canon renders a solution multiset canonically over a fixed variable list.
func canon(vars []string, rows []rdf.Binding) []string {
	out := make([]string, 0, len(rows))
	for _, b := range rows {
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			if t, ok := b[v]; ok {
				parts = append(parts, "?"+v+"="+t.String())
			} else {
				parts = append(parts, "?"+v+"=UNDEF")
			}
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

func collect(in Stream) []rdf.Binding {
	var rows []rdf.Binding
	for b := range in {
		rows = append(rows, b)
	}
	return rows
}

// checkOp runs the vectorized operator (given a fresh input stream factory)
// across worker counts and requires each run to equal the reference
// multiset.
func checkOp(t *testing.T, rig *propRig, workers []int, name string, allVars []string, want []string,
	vectorized func() BatchStream) {
	t.Helper()
	for _, w := range workers {
		rig.env.Workers = w
		got := canon(allVars, collect(batchesToRows(context.Background(), rig.env, vectorized())))
		if len(got) != len(want) {
			t.Fatalf("%s workers=%d: %d solutions, reference %d\ngot:  %v\nwant: %v",
				name, w, len(got), len(want), sample(got), sample(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s workers=%d: solution %d differs\ngot:  %s\nwant: %s", name, w, i, got[i], want[i])
			}
		}
	}
}

func sample(rows []string) []string {
	if len(rows) > 6 {
		return rows[:6]
	}
	return rows
}

// randExprOver builds a random FILTER/BIND expression over the schema.
func (p *propRig) randExprOver(vars []string) sparql.Expression {
	v := func() sparql.Expression { return sparql.ExprVar{Name: vars[p.r.Intn(len(vars))]} }
	switch p.r.Intn(6) {
	case 0:
		return sparql.ExprCall{Func: "CONTAINS", Args: []sparql.Expression{
			sparql.ExprCall{Func: "STR", Args: []sparql.Expression{v()}},
			sparql.ExprTerm{Term: rdf.NewLiteral([]string{"a", "e", "1", "co"}[p.r.Intn(4)])},
		}}
	case 1:
		return sparql.ExprBinary{Op: "=", L: v(), R: v()}
	case 2:
		return sparql.ExprCall{Func: "BOUND", Args: []sparql.Expression{v()}}
	case 3:
		return sparql.ExprBinary{Op: ">", L: v(),
			R: sparql.ExprTerm{Term: rdf.NewTypedLiteral(strconv.Itoa(p.r.Intn(5)), rdf.XSDInteger)}}
	case 4:
		return sparql.ExprUnary{Op: "!", X: sparql.ExprCall{Func: "BOUND", Args: []sparql.Expression{v()}}}
	default:
		return sparql.ExprCall{Func: "STRLEN", Args: []sparql.Expression{
			sparql.ExprCall{Func: "STR", Args: []sparql.Expression{v()}}}}
	}
}

// testBatchOpsOnce drives one random instance of every vectorized operator
// against the reference semantics, with batch sizes in [lo, hi].
func testBatchOpsOnce(t *testing.T, seed int64, lo, hi, maxBatches int, workers []int) {
	rig := newPropRig(seed)
	ctx := context.Background()

	schemaL := []string{"a", "b", "c"}
	schemaR := []string{"b", "c", "d"}
	mkBatches := func(vars []string) []*Batch {
		bs := make([]*Batch, 1+rig.r.Intn(maxBatches))
		for i := range bs {
			bs[i] = rig.randBatch(vars, lo, hi)
		}
		return bs
	}
	left := mkBatches(schemaL)
	right := mkBatches(schemaR)
	leftRows := rig.flatten(left)
	rightRows := rig.flatten(right)
	valuesL := algebra.Values{Variables: schemaL, Rows: leftRows}
	valuesR := algebra.Values{Variables: schemaR, Rows: rightRows}

	// FILTER.
	fexpr := rig.randExprOver(schemaL)
	want := canon(schemaL, Reference(algebra.Filter{Input: valuesL, Expr: fexpr}, rig.env))
	checkOp(t, rig, workers, "filter", schemaL, want, func() BatchStream {
		return batchFilter(ctx, rig.env, fexpr, streamOf(left))
	})

	// BIND onto a fresh variable and onto an existing one.
	bexpr := rig.randExprOver(schemaL)
	extVars := append(append([]string{}, schemaL...), "z")
	want = canon(extVars, Reference(algebra.Extend{Input: valuesL, Var: "z", Expr: bexpr}, rig.env))
	checkOp(t, rig, workers, "bind-fresh", extVars, want, func() BatchStream {
		return batchExtend(ctx, rig.env, "z", bexpr, streamOf(left))
	})
	want = canon(schemaL, Reference(algebra.Extend{Input: valuesL, Var: "c", Expr: bexpr}, rig.env))
	checkOp(t, rig, workers, "bind-existing", schemaL, want, func() BatchStream {
		return batchExtend(ctx, rig.env, "c", bexpr, streamOf(left))
	})

	// DISTINCT.
	want = canon(schemaL, Reference(algebra.Distinct{Input: valuesL}, rig.env))
	checkOp(t, rig, workers, "distinct", schemaL, want, func() BatchStream {
		return batchDedup(ctx, rig.env, schemaL, true, streamOf(left))
	})

	// UNION of the two schemas.
	unionVars := algebra.Union{Left: valuesL, Right: valuesR}.Vars()
	want = canon(unionVars, Reference(algebra.Union{Left: valuesL, Right: valuesR}, rig.env))
	checkOp(t, rig, workers, "union", unionVars, want, func() BatchStream {
		return batchUnion(ctx, streamOf(left), streamOf(right))
	})

	// JOIN on the shared variables (NoTerm holes exercise the partial-row
	// linear-probe path on both sides).
	join := algebra.Join{Left: valuesL, Right: valuesR}
	outVars := join.Vars()
	shared := algebra.SharedVars(valuesL, valuesR)
	want = canon(outVars, Reference(join, rig.env))
	checkOp(t, rig, workers, "join", outVars, want, func() BatchStream {
		return batchJoin(ctx, rig.env, outVars, shared, nil, false, streamOf(left), streamOf(right))
	})

	// OPTIONAL with a filter over the merged row: matched flags are set by
	// probes from both sides, morsel-parallel.
	lj := algebra.LeftJoin{Left: valuesL, Right: valuesR, Filters: []sparql.Expression{rig.randExprOver(outVars)}}
	want = canon(outVars, Reference(lj, rig.env))
	checkOp(t, rig, workers, "leftjoin", outVars, want, func() BatchStream {
		return batchJoin(ctx, rig.env, outVars, shared, lj.Filters, true, streamOf(left), streamOf(right))
	})

	for _, b := range append(left, right...) {
		putBatch(b)
	}
}

// TestBatchOpsMatchRowSemantics sweeps small random batches (where
// selection-vector shapes dominate) over many seeds.
func TestBatchOpsMatchRowSemantics(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			testBatchOpsOnce(t, seed, 0, 40, 3, []int{1, 2, 3, 8})
		})
	}
}

// TestBatchOpsMatchRowSemanticsLargeBatches uses batches above
// morselMinRows so join probes actually run morsel-parallel — worker
// scheduling must still never change the multiset.
func TestBatchOpsMatchRowSemanticsLargeBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("large-batch property sweep")
	}
	for seed := int64(100); seed < 102; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testBatchOpsOnce(t, seed, morselMinRows, morselMinRows+128, 1, []int{1, 8})
		})
	}
}
