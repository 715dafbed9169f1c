package store

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ltqp/internal/rdf"
)

// refIndexes is the representation postings replaced: one append-grown
// slice per key, per index.
type refIndexes struct {
	s, p, o map[rdf.TermID][]int32
	sp, po  map[uint64][]int32
}

func (r *refIndexes) add(t rdf.IDTriple, i int32) {
	r.s[t.S] = append(r.s[t.S], i)
	r.p[t.P] = append(r.p[t.P], i)
	r.o[t.O] = append(r.o[t.O], i)
	r.sp[t.SP()] = append(r.sp[t.SP()], i)
	r.po[t.PO()] = append(r.po[t.PO()], i)
}

// constPattern compiles a pattern with the given positions constant.
func constPattern(t rdf.IDTriple, s, p, o bool) idPattern {
	pat := idPattern{sameAs: [3]int8{-1, -1, -1}, isVar: [3]bool{!s, !p, !o}}
	if s {
		pat.id[0] = t.S
	}
	if p {
		pat.id[1] = t.P
	}
	if o {
		pat.id[2] = t.O
	}
	return pat
}

// TestPostingsMatchReferenceIndexes drives random ID triples through the
// store and a map[K][]int32 reference side by side and compares the
// candidate list of every index shape — S, P, O and the lazily built SP and
// PO, first probed mid-stream so both their bulk build and their
// incremental maintenance are covered — while a live iterator drains one
// pattern concurrently (run under -race). Keys are drawn from small ranges
// so lists outgrow the inline slots and several arena runs.
func TestPostingsMatchReferenceIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	ref := &refIndexes{s: map[rdf.TermID][]int32{}, p: map[rdf.TermID][]int32{}, o: map[rdf.TermID][]int32{},
		sp: map[uint64][]int32{}, po: map[uint64][]int32{}}
	const docs, perDoc = 120, 60
	term := func(n int) rdf.TermID { return rdf.TermID(1 + rng.Intn(n)) }

	// The live reader: everything with predicate 1, counted to the end.
	livePattern := constPattern(rdf.IDTriple{P: 1}, false, true, false)
	live := &Iterator{store: s, pattern: livePattern}
	drained := make(chan int)
	go func() {
		n := 0
		buf := make([]rdf.IDTriple, 16)
		for {
			k, ok := live.NextBatch(context.Background(), buf, nil)
			if !ok {
				break
			}
			for _, tr := range buf[:k] {
				if tr.P != 1 {
					t.Errorf("live iterator yielded %v for predicate 1", tr)
				}
			}
			n += k
		}
		drained <- n
	}()

	probe := func(composite bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for n := 0; n < 40; n++ {
			t0 := rdf.IDTriple{S: term(40), P: term(6), O: term(300)}
			if len(s.triples) > 0 && n%2 == 0 {
				t0 = s.triples[rng.Intn(len(s.triples))] // a key that is present
			}
			shapes := []struct {
				name        string
				pat         idPattern
				want        []int32
				isComposite bool
			}{
				{"S", constPattern(t0, true, false, false), ref.s[t0.S], false},
				{"P", constPattern(t0, false, true, false), ref.p[t0.P], false},
				{"O", constPattern(t0, false, false, true), ref.o[t0.O], false},
				{"SP", constPattern(t0, true, true, false), ref.sp[t0.SP()], true},
				{"PO", constPattern(t0, false, true, true), ref.po[t0.PO()], true},
			}
			for _, sh := range shapes {
				if sh.isComposite && !composite {
					continue
				}
				got := s.candidates(&sh.pat)
				if len(got) == 0 && len(sh.want) == 0 {
					continue
				}
				if !reflect.DeepEqual(append([]int32(nil), got...), sh.want) {
					t.Fatalf("%s candidates for %v after %d triples = %v, reference %v",
						sh.name, t0, len(s.triples), got, sh.want)
				}
			}
		}
	}

	for d := 0; d < docs; d++ {
		ids := make([]rdf.IDTriple, perDoc)
		for i := range ids {
			ids[i] = rdf.IDTriple{S: term(40), P: term(6), O: term(300)}
		}
		before := s.Len()
		s.AddEncoded("doc", 1, ids)
		// Mirror what the store kept: duplicates are dropped, positions are
		// insertion order.
		s.mu.Lock()
		for i := before; i < len(s.triples); i++ {
			ref.add(s.triples[i], int32(i))
		}
		s.mu.Unlock()
		// SP and PO stay unbuilt for the first third of the stream.
		probe(d >= docs/3)
	}
	if s.bySP == nil || s.byPO == nil {
		t.Fatal("composite indexes were never built")
	}
	s.Close()
	if got, want := <-drained, len(ref.p[1]); got != want {
		t.Errorf("live iterator drained %d triples with predicate 1, reference has %d", got, want)
	}
}

// A posting list stays one contiguous slice across the inline-to-run move
// and every doubling, and runs carved from one chunk never overlap.
func TestPostingsGrowth(t *testing.T) {
	var a arena
	ps := newPostings(&a, 0)
	other := newPostings(&a, 0)
	const n = 3 * arenaChunk
	for i := int32(0); i < n; i++ {
		ps.add(1, i)
		other.add(uint64(i%50), -i) // interleaved runs in the same chunks
		if i < 40 || i%997 == 0 {
			got := ps.list(1)
			if len(got) != int(i)+1 || got[0] != 0 || got[i] != i || got[i/2] != i/2 {
				t.Fatalf("after %d adds: list has %d entries, first %d, last %d", i+1, len(got), got[0], got[len(got)-1])
			}
		}
	}
	for k := uint64(0); k < 50; k++ {
		for j, v := range other.list(k) {
			if want := -(int32(k) + 50*int32(j)); v != want {
				t.Fatalf("key %d entry %d = %d, want %d: runs overlap", k, j, v, want)
			}
		}
	}
	if ps.list(2) != nil {
		t.Error("absent key must list nil")
	}
}
