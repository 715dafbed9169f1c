package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictConcurrentInternStableIDs hammers one dictionary from many
// goroutines interning overlapping term sets while others decode, and
// asserts the bijection holds: every goroutine observes the same ID for the
// same term, and every ID decodes to exactly the term it was assigned for.
// Run under -race (make verify) this doubles as the dictionary's data-race
// proof.
func TestDictConcurrentInternStableIDs(t *testing.T) {
	const (
		goroutines = 8
		terms      = 2000
	)
	d := NewDict()
	mk := func(i int) Term {
		switch i % 4 {
		case 0:
			return NewIRI(fmt.Sprintf("http://example.org/iri/%d", i))
		case 1:
			return NewTypedLiteral(fmt.Sprintf("%d", i), XSDInteger)
		case 2:
			return NewLangLiteral(fmt.Sprintf("text %d", i), "en")
		default:
			return NewBlank(fmt.Sprintf("b%d", i))
		}
	}

	results := make([][]TermID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]TermID, terms)
			for i := 0; i < terms; i++ {
				// Each goroutine walks the shared term space in a different
				// order so first-intern races cover every term.
				k := (i*7 + g*13) % terms
				ids[k] = d.Intern(mk(k))
				// Interleave decodes of already-obtained IDs.
				if got := d.Decode(ids[k]); got != mk(k) {
					t.Errorf("goroutine %d: Decode(%d) = %s, want %s", g, ids[k], got, mk(k))
					return
				}
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := 0; i < terms; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("term %d: goroutine %d saw id %d, goroutine 0 saw %d",
					i, g, results[g][i], results[0][i])
			}
		}
	}
	if d.Size() != terms {
		t.Errorf("Size = %d, want %d", d.Size(), terms)
	}
	// Every term is found by Lookup with the agreed ID.
	for i := 0; i < terms; i++ {
		id, ok := d.Lookup(mk(i))
		if !ok || id != results[0][i] {
			t.Fatalf("Lookup(term %d) = (%d, %v), want (%d, true)", i, id, ok, results[0][i])
		}
	}
}

// TestDictConcurrentCanonical pins that Canonical is safe and stable while
// the dictionary is growing concurrently.
func TestDictConcurrentCanonical(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				term := NewIRI(fmt.Sprintf("http://example.org/c/%d", i%100))
				if got := d.Canonical(term); got != term {
					t.Errorf("Canonical(%s) = %s", term, got)
					return
				}
				d.Intern(NewLiteral(fmt.Sprintf("noise %d %d", g, i)))
			}
		}(g)
	}
	wg.Wait()
}

// TestDictConcurrentGrowth interns a term set large enough to double every
// stripe's table several times, from goroutines that each take the set in a
// different order, while readers look the terms up and decode what they
// find. A reader must see a term either absent or with its final ID, never
// with another; every interner must get the same ID for a term; and once
// the interners finish, the IDs are exactly 1..n and every stripe's table
// has doubled at least twice.
func TestDictConcurrentGrowth(t *testing.T) {
	const (
		interners = 4
		readers   = 2
		terms     = 12000 // about 188 a stripe: tables of 64, 128, 256 and some of 512 slots
	)
	d := NewDict()
	mk := func(i int) Term {
		if i%3 == 0 {
			return NewTypedLiteral(fmt.Sprint(i), XSDInteger)
		}
		return NewIRI(fmt.Sprintf("https://pod%d.example/posts/%d#it", i%7, i))
	}
	ids := make([][]TermID, interners)
	done := make(chan struct{})
	var interning, reading sync.WaitGroup
	for g := 0; g < interners; g++ {
		interning.Add(1)
		go func(g int) {
			defer interning.Done()
			ids[g] = make([]TermID, terms)
			for i := 0; i < terms; i++ {
				k := (i*[interners]int{1, 7, 11, 13}[g] + g*977) % terms // strides prime to terms
				ids[g][k] = d.InternBorrowed(mk(k))
			}
		}(g)
	}
	seen := make([][]TermID, readers)
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			seen[r] = make([]TermID, terms)
			for pass := 0; ; pass++ {
				for i := r; i < terms; i += readers {
					id, ok := d.Lookup(mk(i))
					if !ok {
						continue
					}
					if got := d.Decode(id); got != mk(i) {
						t.Errorf("reader %d: Lookup(term %d) = %d, which decodes to %s", r, i, id, got)
						return
					}
					if prev := seen[r][i]; prev != NoTerm && prev != id {
						t.Errorf("reader %d: term %d moved from ID %d to %d", r, i, prev, id)
						return
					}
					seen[r][i] = id
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	interning.Wait()
	close(done)
	reading.Wait()

	used := make([]bool, terms+1)
	for i := 0; i < terms; i++ {
		id := ids[0][i]
		for g := 1; g < interners; g++ {
			if ids[g][i] != id {
				t.Fatalf("term %d: interner %d got ID %d, interner 0 got %d", i, g, ids[g][i], id)
			}
		}
		for r := 0; r < readers; r++ {
			if seen[r][i] != NoTerm && seen[r][i] != id {
				t.Fatalf("term %d: reader %d saw ID %d, final ID %d", i, r, seen[r][i], id)
			}
		}
		if id == NoTerm || int(id) > terms || used[id] {
			t.Fatalf("term %d: ID %d is out of 1..%d or given twice", i, id, terms)
		}
		used[id] = true
	}
	if d.Size() != terms {
		t.Errorf("Size = %d, want %d", d.Size(), terms)
	}
	for i := range d.shards {
		if n := len(d.shards[i].slots); n < 4*dictSlotsMin {
			t.Errorf("stripe %d ended at %d slots, want two doublings from %d", i, n, dictSlotsMin)
		}
	}
}
