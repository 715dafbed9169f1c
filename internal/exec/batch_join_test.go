package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/store"
)

// arenaTestBatch builds a batch over vars ?k ?v whose rows bind ?k to
// keys[i] (NoTerm leaves it unbound) and ?v to a row tag.
func arenaTestBatch(keys []rdf.TermID, tag int) *Batch {
	b := getBatch([]string{"k", "v"}, false)
	for i, k := range keys {
		b.appendRow([]rdf.TermID{k, rdf.TermID(tag + i)}, nil)
	}
	return b
}

// TestJoinArenaChainsKeepInsertionOrder walks every exact chain and
// compares it with the per-key slices the chains replaced: a probe visits
// a key's rows in exactly the order they were inserted. The reference is
// keyed by the generated key IDs, so two keys merged into one slot fail.
func TestJoinArenaChainsKeepInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := getJoinArena(2, false)
	defer putJoinArena(a)
	cmap, shared := []int{0, 1}, []int{0}
	ref := map[rdf.TermID][]int32{} // per-key slices, by key ID
	slotOf := map[rdf.TermID]int32{}
	keyOf := map[int32]rdf.TermID{}
	var refPartial []int32
	var slots []int32
	for batch := 0; batch < 20; batch++ {
		ks := make([]rdf.TermID, rng.Intn(300))
		for i := range ks {
			ks[i] = rdf.TermID(rng.Intn(40)) // 0 is NoTerm: an unbound key
		}
		b := arenaTestBatch(ks, batch*1000)
		var first int32
		first, slots = a.insertBatch(b, cmap, shared, &a.keys, slots)
		putBatch(b)
		for i, k := range ks {
			r := first + int32(i)
			if k == rdf.NoTerm {
				if slots[i] >= 0 {
					t.Fatalf("unbound key filed in slot %d", slots[i])
				}
				refPartial = append(refPartial, r)
				continue
			}
			if s, ok := slotOf[k]; ok && s != slots[i] {
				t.Fatalf("key %d in slots %d and %d", k, s, slots[i])
			}
			if o, ok := keyOf[slots[i]]; ok && o != k {
				t.Fatalf("keys %d and %d share slot %d", o, k, slots[i])
			}
			slotOf[k], keyOf[slots[i]] = slots[i], k
			ref[k] = append(ref[k], r)
		}
	}
	if int(a.keys.n) != len(ref) || len(a.chains) != len(ref) {
		t.Fatalf("%d keys, %d chains, reference %d", a.keys.n, len(a.chains), len(ref))
	}
	for key, want := range ref {
		var got []int32
		for r := a.chains[slotOf[key]].head; r >= 0; r = a.next[r] {
			got = append(got, r)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("key %v: chain %v, insertion order %v", key, got, want)
		}
		if tail := a.chains[slotOf[key]].tail; tail != want[len(want)-1] {
			t.Fatalf("key %v: tail %d, want %d", key, tail, want[len(want)-1])
		}
	}
	if !slices.Equal(a.partial, refPartial) {
		t.Fatalf("partial %v, reference %v", a.partial, refPartial)
	}
}

// TestJoinArenaInsertAllocations pins the point of the chains: filing
// fresh keys into a warmed arena allocates nothing — no slice per key.
func TestJoinArenaInsertAllocations(t *testing.T) {
	ks := make([]rdf.TermID, batchCap)
	for i := range ks {
		ks[i] = rdf.TermID(i + 1)
	}
	b := arenaTestBatch(ks, 0)
	defer putBatch(b)
	a := getJoinArena(2, false)
	defer putJoinArena(a)
	cmap, shared := []int{0, 1}, []int{0}
	slots := make([]int32, 0, batchCap)
	insert := func() {
		_, slots = a.insertBatch(b, cmap, shared, &a.keys, slots)
		a.reset()
	}
	insert() // warm the arena's key table, columns and chains
	if n := testing.AllocsPerRun(50, insert); n != 0 {
		t.Errorf("insertBatch of %d fresh keys into a warmed arena: %v allocations, want 0", len(ks), n)
	}
}

// TestConcurrentJoinsShareArenaPool runs many joins at once, each over a
// store of its own whose terms carry the join's tag, so every join draws
// arenas from the shared pool while others return theirs. A row from one
// join showing up in another would be an arena reused while still read;
// the ledger must return to zero once each query ends.
func TestConcurrentJoinsShareArenaPool(t *testing.T) {
	const joins, rows = 16, 700
	op := stressPlan(t, `SELECT ?s ?o ?w WHERE {
  ?s <http://v/p> ?o .
  ?s <http://v/q> ?w .
}`)
	var wg sync.WaitGroup
	errs := make(chan error, joins)
	for j := 0; j < joins; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			s := store.New()
			doc := rdf.NewIRI(fmt.Sprintf("http://example.org/doc%d", j))
			for i := 0; i < rows; i++ {
				subj := rdf.NewIRI(fmt.Sprintf("http://example.org/j%d/s%d", j, i%(rows/2)))
				s.Add(rdf.NewTriple(subj, rdf.NewIRI("http://v/p"), rdf.NewLiteral(fmt.Sprintf("j%d o%d", j, i))), doc)
				s.Add(rdf.NewTriple(subj, rdf.NewIRI("http://v/q"), rdf.NewLiteral(fmt.Sprintf("j%d w%d", j, i))), doc)
			}
			s.Close()
			env := NewEnv(s)
			env.Ledger = resource.New(int64(j), "", 0)
			prefix := fmt.Sprintf("j%d ", j)
			n := 0
			for b := range Eval(context.Background(), op, env) {
				n++
				for _, v := range []string{"o", "w"} {
					if lex := b[v].Value; len(lex) < len(prefix) || lex[:len(prefix)] != prefix {
						errs <- fmt.Errorf("join %d: foreign row %v", j, b)
						return
					}
				}
			}
			// Each subject has two ?o and two ?w values.
			if want := rows / 2 * 4; n != want {
				errs <- fmt.Errorf("join %d: %d rows, want %d", j, n, want)
			}
			if cur := env.Ledger.Current(); cur != 0 {
				errs <- fmt.Errorf("join %d: ledger holds %d bytes after the query", j, cur)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
