package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// Property-based suite pinning every vectorized operator to the reference
// semantics: for randomly generated batches with random selection vectors
// (nil, ordered-sparse, out-of-order, reversed, empty, single-row), each
// batch operator must produce the same solution multiset as Reference run
// over the flattened input.

type propRig struct {
	r    *rand.Rand
	env  *Env
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
	out := render(vars, rows)
	sort.Strings(out)
	return out
}

// render renders a solution sequence over a fixed variable list, in order.
func render(vars []string, rows []rdf.Binding) []string {
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
// and requires its solution multiset to equal the reference's.
func checkOp(t *testing.T, rig *propRig, name string, allVars []string, want []string,
	vectorized func() BatchStream) {
	t.Helper()
	checkRows(t, name, want, canon(allVars, collect(batchesToRows(context.Background(), rig.env, vectorized()))))
}

// checkRows requires two rendered solution lists to be equal.
func checkRows(t *testing.T, name string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d solutions, reference %d\ngot:  %v\nwant: %v",
			name, len(got), len(want), sample(got), sample(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: solution %d differs\ngot:  %s\nwant: %s", name, i, got[i], want[i])
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
func testBatchOpsOnce(t *testing.T, seed int64, lo, hi, maxBatches int) {
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
	checkOp(t, rig, "filter", schemaL, want, func() BatchStream {
		return batchFilter(ctx, rig.env, fexpr, streamOf(left))
	})

	// BIND onto a fresh variable and onto an existing one.
	bexpr := rig.randExprOver(schemaL)
	extVars := append(append([]string{}, schemaL...), "z")
	want = canon(extVars, Reference(algebra.Extend{Input: valuesL, Var: "z", Expr: bexpr}, rig.env))
	checkOp(t, rig, "bind-fresh", extVars, want, func() BatchStream {
		return batchExtend(ctx, rig.env, "z", bexpr, streamOf(left))
	})
	want = canon(schemaL, Reference(algebra.Extend{Input: valuesL, Var: "c", Expr: bexpr}, rig.env))
	checkOp(t, rig, "bind-existing", schemaL, want, func() BatchStream {
		return batchExtend(ctx, rig.env, "c", bexpr, streamOf(left))
	})

	// DISTINCT.
	want = canon(schemaL, Reference(algebra.Distinct{Input: valuesL}, rig.env))
	checkOp(t, rig, "distinct", schemaL, want, func() BatchStream {
		return batchDedup(ctx, rig.env, schemaL, true, streamOf(left))
	})

	// UNION of the two schemas.
	unionVars := algebra.Union{Left: valuesL, Right: valuesR}.Vars()
	want = canon(unionVars, Reference(algebra.Union{Left: valuesL, Right: valuesR}, rig.env))
	checkOp(t, rig, "union", unionVars, want, func() BatchStream {
		return batchUnion(ctx, streamOf(left), streamOf(right))
	})

	// JOIN on the shared variables (NoTerm holes exercise the partial-row
	// linear-probe path on both sides).
	join := algebra.Join{Left: valuesL, Right: valuesR}
	outVars := join.Vars()
	shared := algebra.SharedVars(valuesL, valuesR)
	want = canon(outVars, Reference(join, rig.env))
	checkOp(t, rig, "join", outVars, want, func() BatchStream {
		return batchJoin(ctx, rig.env, outVars, shared, nil, innerJoin, streamOf(left), streamOf(right))
	})

	// OPTIONAL with a filter over the merged row: matched flags are set by
	// probes from both sides.
	lj := algebra.LeftJoin{Left: valuesL, Right: valuesR, Filters: []sparql.Expression{rig.randExprOver(outVars)}}
	want = canon(outVars, Reference(lj, rig.env))
	checkOp(t, rig, "leftjoin", outVars, want, func() BatchStream {
		return batchJoin(ctx, rig.env, outVars, shared, lj.Filters, leftJoin, streamOf(left), streamOf(right))
	})

	// MINUS: NoTerm holes make right rows that share no bound variable with
	// a left row, which must not remove it.
	want = canon(schemaL, Reference(algebra.Minus{Left: valuesL, Right: valuesR}, rig.env))
	checkOp(t, rig, "minus", schemaL, want, func() BatchStream {
		return batchJoin(ctx, rig.env, schemaL, shared, nil, antiJoin, streamOf(left), streamOf(right))
	})

	// GROUP BY: groups come out in first-seen order and each aggregate
	// reads its group's rows in input order, as groupRows does, so the two
	// agree as a sequence, SAMPLE and GROUP_CONCAT included.
	arg := func(v string) []sparql.Expression { return []sparql.Expression{sparql.ExprVar{Name: v}} }
	by := [][]string{nil, {"a"}, {"a", "b"}, {"a", "b", "c"}}
	group := algebra.Group{Input: valuesL, By: by[rig.r.Intn(len(by))], Items: []sparql.SelectItem{
		{Var: "n", Expr: sparql.ExprCall{Func: "COUNT", Star: true}},
		{Var: "nd", Expr: sparql.ExprCall{Func: "COUNT", Distinct: true, Star: true}},
		{Var: "nb", Expr: sparql.ExprCall{Func: "COUNT", Distinct: true, Args: arg("b")}},
		{Var: "lo", Expr: sparql.ExprCall{Func: "MIN", Args: arg("c")}},
		{Var: "sum", Expr: sparql.ExprCall{Func: "SUM", Args: arg("c")}},
		{Var: "any", Expr: sparql.ExprCall{Func: "SAMPLE", Args: arg("b")}},
		{Var: "cat", Expr: sparql.ExprCall{Func: "GROUP_CONCAT", Args: arg("c"), Sep: ","}},
		{Var: "catd", Expr: sparql.ExprCall{Func: "GROUP_CONCAT", Distinct: true, Args: arg("a")}},
	}}
	groupVars := group.Vars()
	checkRows(t, "group", render(groupVars, groupRows(rig.env, group, leftRows)),
		render(groupVars, collect(batchesToRows(ctx, rig.env, batchGroup(ctx, group, rig.env)))))

	for _, b := range append(left, right...) {
		putBatch(b)
	}
}

// TestBatchOpsMatchRowSemantics sweeps small random batches (where
// selection-vector shapes dominate) over many seeds.
func TestBatchOpsMatchRowSemantics(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			testBatchOpsOnce(t, seed, 0, 40, 3)
		})
	}
}

// TestBatchOpsMatchRowSemanticsLargeBatches uses batches of several hundred
// rows, so every join probe walks long chains and partial-row lists.
func TestBatchOpsMatchRowSemanticsLargeBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("large-batch property sweep")
	}
	for seed := int64(100); seed < 102; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testBatchOpsOnce(t, seed, 512, 640, 1)
		})
	}
}

// orderMixes are the term pools of the ORDER BY sweep: one per literal
// family, where the keys are totally ordered, and two mixing the families
// (one with invalid lexical forms and NaN), where the order is not
// transitive and ORDER BY must reproduce the reference's stable sort exactly.
// Every pool holds an IRI and a blank node; randBatch adds unbound holes.
func orderMixes() [][]rdf.Term {
	lit := rdf.NewTypedLiteral
	numeric := []rdf.Term{lit("9", rdf.XSDInteger), lit("10", rdf.XSDInteger), lit("1", rdf.XSDInteger),
		lit("01", rdf.XSDInteger), lit("1.0", rdf.XSDDecimal), lit("2.5e0", rdf.XSDDouble), lit("-3", rdf.XSDInt)}
	dateTime := []rdf.Term{lit("2024-01-01T00:00:00Z", rdf.XSDDateTime), lit("2024-01-01T01:00:00+01:00", rdf.XSDDateTime),
		lit("2024-01-01T00:00:00", rdf.XSDDateTime), lit("2023-12-31T23:59:59.5Z", rdf.XSDDateTime),
		lit("2024-01-02", rdf.XSDDate), lit("2023-06-01T12:00:00-05:00", rdf.XSDDateTime)}
	str := []rdf.Term{rdf.NewLiteral("a"), rdf.NewLiteral("b"), rdf.NewLiteral("10"), rdf.NewLiteral("9"),
		{Kind: rdf.TermLiteral, Value: "a", Datatype: rdf.XSDString}, rdf.NewLangLiteral("a", "en"), rdf.NewLangLiteral("b", "fr")}
	boolean := []rdf.Term{lit("true", rdf.XSDBoolean), lit("false", rdf.XSDBoolean), lit("1", rdf.XSDBoolean), lit("0", rdf.XSDBoolean)}
	// Numbers whose lexical order is not their value order next to strings
	// of the same lexical forms make cycles (9 < 10 by value, 10 < "9" and
	// "9" < 9 as terms), so the order depends on the sort algorithm.
	cycle := []rdf.Term{numeric[0], numeric[1], str[3]}
	mixed := []rdf.Term{numeric[0], numeric[1], numeric[5], str[2], str[3], rdf.NewLiteral("2.5e0"),
		dateTime[0], rdf.NewLiteral("2024-01-01"), boolean[0], rdf.NewLiteral("true"),
		lit("abc", rdf.XSDInteger), lit("NaN", rdf.XSDDouble), lit("bad", rdf.XSDDateTime),
		lit("maybe", rdf.XSDBoolean), lit("x", "http://example.org/dt")}
	nodes := []rdf.Term{rdf.NewIRI("http://example.org/e1"), rdf.NewBlank("b1")}
	var out [][]rdf.Term
	for _, pool := range [][]rdf.Term{numeric, dateTime, str, boolean, cycle, mixed} {
		out = append(out, append(append([]rdf.Term{}, pool...), nodes...))
	}
	return out
}

// randOrderConds builds one or two ORDER BY conditions over the schema,
// each ascending or descending, on a variable or on an expression (STR of
// a variable, or COALESCE of two: unbound and error keys included).
func (p *propRig) randOrderConds(vars []string) []sparql.OrderCondition {
	v := func() sparql.Expression { return sparql.ExprVar{Name: vars[p.r.Intn(len(vars))]} }
	conds := make([]sparql.OrderCondition, 1+p.r.Intn(2))
	for i := range conds {
		var e sparql.Expression
		switch p.r.Intn(4) {
		case 0:
			e = sparql.ExprCall{Func: "STR", Args: []sparql.Expression{v()}}
		case 1:
			e = sparql.ExprCall{Func: "COALESCE", Args: []sparql.Expression{v(), v()}}
		default:
			e = v()
		}
		conds[i] = sparql.OrderCondition{Expr: e, Desc: p.r.Intn(2) == 0}
	}
	return conds
}

// TestOrderByMatchesReference pins the batch ORDER BY to the reference's
// orderRows as a sequence, not a multiset: alone, under LIMIT/OFFSET
// (directly and through a projection), and under DISTINCT.
func TestOrderByMatchesReference(t *testing.T) {
	ctx := context.Background()
	mixes := orderMixes()
	schema := []string{"a", "b", "c"}
	for seed := int64(0); seed < 60; seed++ {
		rig := newPropRig(seed)
		mix := mixes[int(seed)%len(mixes)]
		rig.pool = rig.pool[:0]
		for _, term := range mix {
			rig.pool = append(rig.pool, rig.env.dict.Intern(term))
		}
		batches := make([]*Batch, 1+rig.r.Intn(3))
		for i := range batches {
			batches[i] = rig.randBatch(schema, 0, 300)
		}
		rows := rig.flatten(batches)
		values := algebra.Values{Variables: schema, Rows: rows}
		conds := rig.randOrderConds(schema)
		order := algebra.OrderBy{Input: values, Conds: conds}
		offset, limit := rig.r.Intn(5), rig.r.Intn(25)
		proj := []string{"a", schema[1+rig.r.Intn(2)]}

		check := func(name string, vars []string, op algebra.Operator, got []rdf.Binding) {
			t.Helper()
			want := render(vars, Reference(op, rig.env))
			if g := render(vars, got); !slices.Equal(g, want) {
				t.Fatalf("seed %d %s %v: %d rows\ngot:  %v\nwant: %v", seed, name, conds, len(g), sample(g), sample(want))
			}
		}
		check("orderby", schema, order,
			collect(batchesToRows(ctx, rig.env, batchOrderBy(ctx, rig.env, schema, conds, streamOf(batches)))))
		slice := algebra.Slice{Input: order, Offset: offset, Limit: limit}
		check("slice", schema, slice, collect(Eval(ctx, slice, rig.env)))
		for name, op := range map[string]algebra.Operator{
			"slice-project": algebra.Slice{Input: algebra.Project{Input: order, Names: proj}, Offset: offset, Limit: limit},
			"slice-distinct": algebra.Slice{Input: algebra.Distinct{Input: algebra.Project{Input: order, Names: proj}},
				Offset: offset, Limit: limit},
			"distinct": algebra.Distinct{Input: algebra.Project{Input: order, Names: proj}},
		} {
			check(name, proj, op, collect(Eval(ctx, op, rig.env)))
		}
		for _, b := range batches {
			putBatch(b)
		}
	}
}

// randBGP builds a basic graph pattern of 1 to 5 patterns over a small term
// pool, with constants in any position, repeated variables within a
// pattern, GRAPH ?g, GRAPH <doc> and GRAPH over a variable the triples use,
// and copies of an earlier pattern with one variable renamed, so that one
// triple matches two patterns.
func randBGP(r *rand.Rand, terms, docs []rdf.Term) []algebra.Pattern {
	vars := []rdf.Term{rdf.NewVar("a"), rdf.NewVar("b"), rdf.NewVar("c"), rdf.NewVar("d")}
	term := func() rdf.Term {
		if r.Intn(3) == 0 {
			return terms[r.Intn(len(terms))]
		}
		return vars[r.Intn(len(vars))]
	}
	pats := make([]algebra.Pattern, 1+r.Intn(5))
	for j := range pats {
		var p algebra.Pattern
		switch {
		case j > 0 && r.Intn(3) == 0: // the tie case: a renamed copy
			p = pats[r.Intn(j)]
			fresh := vars[r.Intn(len(vars))]
			switch {
			case p.Triple.S.IsVar():
				p.Triple.S = fresh
			case p.Triple.O.IsVar():
				p.Triple.O = fresh
			}
		case r.Intn(6) == 0: // a repeated variable
			v := vars[r.Intn(len(vars))]
			p.Triple = rdf.NewTriple(v, terms[r.Intn(3)], v)
		default:
			pred := terms[r.Intn(3)]
			if r.Intn(8) == 0 {
				pred = vars[r.Intn(len(vars))]
			}
			p.Triple = rdf.NewTriple(term(), pred, term())
		}
		switch r.Intn(10) {
		case 0, 1:
			p.Graph = rdf.NewVar("g")
		case 2:
			p.Graph = docs[r.Intn(len(docs))]
		case 3: // a variable of the triple or of another pattern
			p.Graph = vars[r.Intn(len(vars))]
		}
		pats[j] = p
	}
	return pats
}

// bgpStore adds the documents in random groups, one group per store
// wake-up as a running BGP sees them, waiting wait between groups, and
// closes the store.
func bgpStore(r *rand.Rand, st *store.Store, docs []rdf.Term, triples [][]rdf.Triple, wait func()) {
	for d := 0; d < len(docs); {
		for k := 1 + r.Intn(3); k > 0 && d < len(docs); k-- {
			st.AddDocument(docs[d].Value, triples[d])
			d++
		}
		wait()
	}
	st.Close()
}

// TestBGPMatchesReference runs random basic graph patterns through the BGP
// operator, provenance on, over a store that grows in document-sized steps
// while it runs and over the same store closed before it starts, and
// requires the reference's solution multiset from both. Each solution's
// sources must be exactly the documents of the triples it joined, and the
// provenance tallies the same in both runs. Then it runs SELECT DISTINCT
// over a random subset of the chain's variables, sometimes through a
// FILTER on another variable and sometimes with one pattern's predicate
// widened to an alternative (p|q): the operator may skip partial rows that
// repeat what the kept variables need, never a projected solution.
func TestBGPMatchesReference(t *testing.T) {
	ex := "http://example.org/"
	var terms []rdf.Term
	for _, n := range []string{"p", "q", "r", "e0", "e1", "e2", "e3"} {
		terms = append(terms, rdf.NewIRI(ex+n))
	}
	terms = append(terms, rdf.NewLiteral("lit"))
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		docs := make([]rdf.Term, 2+r.Intn(6))
		triples := make([][]rdf.Triple, len(docs))
		for d := range docs {
			docs[d] = rdf.NewIRI(fmt.Sprintf("%sdoc%d", ex, d))
		}
		for d := range docs {
			for k := r.Intn(8); k >= 0; k-- {
				s, o := terms[3+r.Intn(4)], terms[3+r.Intn(5)]
				if r.Intn(5) == 0 {
					s = docs[r.Intn(len(docs))]
				}
				triples[d] = append(triples[d], rdf.NewTriple(s, terms[r.Intn(3)], o))
			}
		}
		pats := randBGP(r, terms, docs)
		var op algebra.Operator = pats[0]
		for _, p := range pats[1:] {
			op = algebra.Join{Left: op, Right: p}
		}
		vars := op.Vars()
		run := func(op algebra.Operator, growing bool) ([]rdf.Binding, *Env) {
			st := store.New()
			env := NewEnv(st)
			env.Prov = NewProv()
			if !growing {
				bgpStore(r, st, docs, triples, func() {})
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out := Eval(ctx, op, env)
			if growing {
				go bgpStore(r, st, docs, triples, func() { time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond) })
			}
			return collect(out), env
		}
		grown, genv := run(op, true)
		closed, cenv := run(op, false)
		want := canon(vars, Reference(op, cenv))
		checkRows(t, fmt.Sprintf("seed %d growing %v", seed, op), want, canon(vars, grown))
		checkRows(t, fmt.Sprintf("seed %d closed %v", seed, op), want, canon(vars, closed))
		for _, row := range append(grown, closed...) {
			var srcs []string
			for _, p := range pats {
				src, ok := cenv.Store.Source(p.Triple.Bind(row))
				if !ok {
					t.Fatalf("seed %d: solution %v does not match %v", seed, row, p)
				}
				srcs = append(srcs, src.Value)
			}
			slices.Sort(srcs)
			if got := row.Sources(); !slices.Equal(got, slices.Compact(srcs)) {
				t.Fatalf("seed %d %v: sources %v, want %v", seed, row, got, srcs)
			}
		}
		if g, c := genv.Prov.Contributions(), cenv.Prov.Contributions(); !slices.Equal(g, c) {
			t.Fatalf("seed %d: tallies growing %v, closed %v", seed, g, c)
		}
		if len(vars) == 0 {
			continue
		}
		var chain algebra.Operator
		alt := r.Intn(len(pats))
		for j, p := range pats {
			var leaf algebra.Operator = p
			if j == alt && !p.Triple.P.IsVar() && r.Intn(2) == 0 {
				q := p
				q.Triple.P = terms[(slices.Index(terms, p.Triple.P)+1)%3]
				leaf = algebra.Union{Left: p, Right: q}
			}
			if chain == nil {
				chain = leaf
			} else {
				chain = algebra.Join{Left: chain, Right: leaf}
			}
		}
		if r.Intn(3) == 0 {
			chain = algebra.Filter{Input: chain, Expr: sparql.ExprBinary{Op: "!=",
				L: sparql.ExprVar{Name: vars[r.Intn(len(vars))]}, R: sparql.ExprTerm{Term: terms[3+r.Intn(4)]}}}
		}
		var kept []string
		for _, v := range vars {
			if r.Intn(2) == 0 {
				kept = append(kept, v)
			}
		}
		if kept == nil {
			kept = vars[:1]
		}
		dop := algebra.Distinct{Input: algebra.Project{Input: chain, Names: kept}}
		want = canon(kept, Reference(dop, cenv))
		grown, _ = run(dop, true)
		closed, _ = run(dop, false)
		checkRows(t, fmt.Sprintf("seed %d growing %v", seed, dop), want, canon(kept, grown))
		checkRows(t, fmt.Sprintf("seed %d closed %v", seed, dop), want, canon(kept, closed))
	}
}
