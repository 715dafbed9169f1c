package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/store"
)

// keyVarNames returns w distinct variable names.
func keyVarNames(w int) []string {
	vars := make([]string, w)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	return vars
}

// TestIDKeyExhaustiveWidths exhaustively checks, for key widths 0..6, that
// idKeyOf separates every pair of distinct rows and unifies every pair of
// equal rows over a small term universe — including unbound slots, which
// must key exactly like the NoTerm sentinel and nothing else.
func TestIDKeyExhaustiveWidths(t *testing.T) {
	s := store.New()
	d := s.Dict()
	// Universe per slot: unbound, or one of three terms.
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/a"),
		rdf.NewLiteral("a"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger),
	}
	for width := 0; width <= 6; width++ {
		// Enumerate all (len(terms)+1)^width rows.
		total := 1
		for i := 0; i < width; i++ {
			total *= len(terms) + 1
		}
		keys := make(map[idKey]int, total) // key -> row encoding
		for enc := 0; enc < total; enc++ {
			ids := make([]rdf.TermID, width)
			rem := enc
			for i := 0; i < width; i++ {
				choice := rem % (len(terms) + 1)
				rem /= len(terms) + 1
				if choice > 0 {
					ids[i] = d.Intern(terms[choice-1])
				}
			}
			k := idKeyOf(ids)
			if prev, dup := keys[k]; dup {
				t.Fatalf("width %d: rows %d and %d collide on key %+v", width, prev, enc, k)
			}
			keys[k] = enc
			// Keys are deterministic: recomputing gives the same key.
			if again := idKeyOf(ids); again != k {
				t.Fatalf("width %d row %d: key not deterministic", width, enc)
			}
		}
		if len(keys) != total {
			t.Fatalf("width %d: %d distinct keys for %d distinct rows", width, len(keys), total)
		}
	}
}

// TestIDKeyCollisionFreedomRandom hammers collision-freedom: 10k random
// bindings over 6 variables — any two that render differently must key
// differently, any two equal rows must share a key.
func TestIDKeyCollisionFreedomRandom(t *testing.T) {
	s := store.New()
	d := s.Dict()
	r := rand.New(rand.NewSource(11))
	vars := keyVarNames(6)
	keyOf := func(b rdf.Binding) idKey {
		ids := make([]rdf.TermID, len(vars))
		for i, v := range vars {
			if t, ok := b[v]; ok {
				ids[i] = d.Intern(t)
			}
		}
		return idKeyOf(ids)
	}

	var pool []rdf.Term
	for i := 0; i < 50; i++ {
		pool = append(pool, rdf.NewIRI(fmt.Sprintf("http://example.org/r%d", i)))
		pool = append(pool, rdf.NewLiteral(fmt.Sprintf("lit%d", i)))
		pool = append(pool, rdf.NewTypedLiteral(fmt.Sprintf("%d", i), rdf.XSDInteger))
	}

	canonRow := func(b rdf.Binding) string {
		out := ""
		for _, v := range vars {
			if t, ok := b[v]; ok {
				out += t.String() + "|"
			} else {
				out += "UNDEF|"
			}
		}
		return out
	}

	byKey := map[idKey]string{}
	byRow := map[string]idKey{}
	for i := 0; i < 10000; i++ {
		b := rdf.Binding{}
		for _, v := range vars {
			if r.Intn(4) > 0 {
				b[v] = pool[r.Intn(len(pool))]
			}
		}
		k := keyOf(b)
		row := canonRow(b)
		if prevRow, ok := byKey[k]; ok && prevRow != row {
			t.Fatalf("collision: rows %q and %q share key %+v", prevRow, row, k)
		}
		if prevKey, ok := byRow[row]; ok && prevKey != k {
			t.Fatalf("instability: row %q keyed %+v then %+v", row, prevKey, k)
		}
		byKey[k] = row
		byRow[row] = k
	}
}

// TestUnboundRoundTripsThroughBatchJoin is the UNDEF regression: a variable
// absent from one join side enters the batch pipeline as NoTerm, must not
// match any bound value group, and must decode back out as an absent
// binding entry — not a phantom term.
func TestUnboundRoundTripsThroughBatchJoin(t *testing.T) {
	rig := newPropRig(42)
	ctx := context.Background()

	// Left rows over {a, b}: b sometimes unbound (NoTerm holes).
	// Right rows over {b, c}: joined on ?b; an unbound left ?b is
	// compatible with every right row (SPARQL merge semantics).
	schemaL := []string{"a", "b"}
	schemaR := []string{"b", "c"}
	left := getBatch(schemaL, false)
	right := getBatch(schemaR, false)
	b1 := rig.pool[0]
	b2 := rig.pool[1]
	cv := rig.pool[2]
	left.cols[0] = append(left.cols[0], rig.pool[3], rig.pool[4], rig.pool[5])
	left.cols[1] = append(left.cols[1], b1, rdf.NoTerm, b2)
	left.n = 3
	right.cols[0] = append(right.cols[0], b1, rdf.NoTerm)
	right.cols[1] = append(right.cols[1], cv, cv)
	right.n = 2

	leftRows := rig.flatten([]*Batch{left})
	rightRows := rig.flatten([]*Batch{right})
	for _, rows := range [][]rdf.Binding{leftRows, rightRows} {
		for _, r := range rows {
			for v, term := range r {
				if term == (rdf.Term{}) {
					t.Fatalf("NoTerm decoded into a phantom term for ?%s in %v", v, r)
				}
			}
		}
	}
	if _, bound := leftRows[1]["b"]; bound {
		t.Fatalf("unbound ?b decoded as bound: %v", leftRows[1])
	}

	valuesL := algebra.Values{Variables: schemaL, Rows: leftRows}
	valuesR := algebra.Values{Variables: schemaR, Rows: rightRows}
	join := algebra.Join{Left: valuesL, Right: valuesR}
	outVars := join.Vars()
	want := canon(outVars, Reference(join, rig.env))

	lb := getBatch(schemaL, false)
	rb := getBatch(schemaR, false)
	for c := range left.cols {
		lb.cols[c] = append(lb.cols[c], left.cols[c]...)
	}
	lb.n = left.n
	for c := range right.cols {
		rb.cols[c] = append(rb.cols[c], right.cols[c]...)
	}
	rb.n = right.n
	one := func(b *Batch) BatchStream {
		ch := make(chan *Batch, 1)
		ch <- b
		close(ch)
		return ch
	}
	got := canon(outVars, collect(batchesToRows(ctx, rig.env,
		batchJoin(ctx, rig.env, outVars, algebra.SharedVars(valuesL, valuesR), nil, innerJoin, one(lb), one(rb)))))

	if len(got) != len(want) {
		t.Fatalf("join through batches: %d solutions, reference %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("solution %d differs\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
	// The unbound-row pairings must be present: left row 2 (?b unbound)
	// joins both right rows, and right row 2 (?b unbound) joins all left
	// rows — 3 + 2 extra solutions beyond the exact b1 match.
	if len(got) < 5 {
		t.Fatalf("partial-row probe lost unbound pairings: only %d solutions: %v", len(got), got)
	}
}

// TestKeySetMatchesMap adds random packed keys, the all-unbound key 0
// among them, drawn from ranges small enough to repeat, to a keySet and to
// a map through many doublings: add must report a key fresh exactly when
// the map did not hold it.
func TestKeySetMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var s keySet
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(40))<<32 | uint64(r.Intn(300))
		if i%5000 == 7 {
			k = 0
		}
		if fresh := s.add(k); fresh == ref[k] {
			t.Fatalf("add %#x: fresh %v, map held it %v", k, fresh, ref[k])
		}
		ref[k] = true
	}
	if s.n+1 != len(ref) || !s.zero {
		t.Fatalf("%d keys besides 0 (0 held: %v), map %d", s.n, s.zero, len(ref))
	}
}
