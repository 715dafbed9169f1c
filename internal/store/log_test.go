package store

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ltqp/internal/rdf"
)

// The log's pages hold 64, 64, 128, 256 and 512 triples, then pageSize each;
// every position reads back the triple appended at it, and a page, once in
// the directory, never moves while the log keeps growing.
func TestTripleLogPages(t *testing.T) {
	var l tripleLog
	var first []*rdf.IDTriple // each page's first entry, as it was added
	const n = 5*pageSize + 17
	for i := int32(0); i < n; i++ {
		l.append(rdf.IDTriple{S: rdf.TermID(i), P: 1, O: rdf.TermID(n - i)})
		if len(l.dir) > len(first) {
			first = append(first, &l.dir[len(l.dir)-1][0])
		}
		for k, p := range first {
			if &l.dir[k][0] != p {
				t.Fatalf("page %d moved when position %d was appended", k, i)
			}
		}
	}
	want := []int{64, 64, 128, 256, 512, pageSize, pageSize, pageSize, pageSize, pageSize}
	if len(l.dir) != len(want) {
		t.Fatalf("%d pages for %d triples, want %d", len(l.dir), n, len(want))
	}
	for k, page := range l.dir {
		if len(page) != want[k] {
			t.Errorf("page %d holds %d triples, want %d", k, len(page), want[k])
		}
	}
	for i := int32(0); i < n; i++ {
		if got := l.at(i); got.S != rdf.TermID(i) || got.O != rdf.TermID(n-i) {
			t.Fatalf("position %d reads %v", i, got)
		}
	}
}

// TestLiveBGPAcrossPages attaches documents that end exactly at a page
// boundary, straddle one and span a whole page, across every small page and
// several full ones, while live BGP readers, MatchNow and Snapshot read the
// store. MatchNow and Snapshot must read a growing prefix of the triples in
// insertion order, and each live reader every triple of its pattern exactly
// once, untorn.
func TestLiveBGPAcrossPages(t *testing.T) {
	s := New()
	// Ends: 1, 64, 65, 127, 129, 255, 256, 556, 756, 1956, 1957, 4005, 4010.
	sizes := []int{1, 63, 1, 62, 2, 126, 1, 300, 200, 1200, 1, 2048, 5}
	var docs [][]rdf.IDTriple
	total := 0
	for _, n := range sizes {
		ids := make([]rdf.IDTriple, n)
		for i := range ids {
			ids[i] = s.dict.InternTriple(raceTriple(total + i))
		}
		docs = append(docs, ids)
		total += n
	}
	want := func(stripe int) int { // how many raceTriples of 0..total-1 are in the stripe
		return (total - stripe + 6) / 7
	}
	stripe := func(k int) rdf.Triple {
		return rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI(fmt.Sprintf("http://example.org/p/%d", k)), rdf.NewVar("o"))
	}

	var wg sync.WaitGroup
	counts := make([]int, 3)
	patterns := []rdf.Triple{rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")), stripe(3), stripe(5)}
	for r, pattern := range patterns {
		b := loneBGP(s, pattern)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.Release()
			seen := map[rdf.Triple]bool{}
			for _, tr := range drain(context.Background(), b) {
				checkCorrelated(t, tr)
				if seen[tr] {
					t.Errorf("reader %d yielded %v twice", r, tr)
				}
				seen[tr] = true
			}
			counts[r] = len(seen)
		}()
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevMatch, prevSnap := 0, 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := s.MatchNow(stripe(3))
			for i, tr := range got {
				if tr != raceTriple(3+7*i) {
					t.Errorf("MatchNow's match %d is %v, want %v", i, tr, raceTriple(3+7*i))
					return
				}
			}
			snap := s.Snapshot()
			for i, tr := range snap {
				if tr != raceTriple(i) {
					t.Errorf("snapshot position %d holds %v, want %v", i, tr, raceTriple(i))
					return
				}
			}
			if len(got) < prevMatch || len(snap) < prevSnap {
				t.Errorf("MatchNow shrank %d -> %d or Snapshot %d -> %d", prevMatch, len(got), prevSnap, len(snap))
			}
			prevMatch, prevSnap = len(got), len(snap)
		}
	}()
	src := s.dict.Intern(iri("doc"))
	for _, ids := range docs {
		if got := s.AddEncoded(src, ids); got != len(ids) {
			t.Errorf("AddEncoded = %d new triples, want %d", got, len(ids))
		}
		runtime.Gosched()
	}
	s.Close()
	close(stop)
	wg.Wait()
	if counts[0] != total || counts[1] != want(3) || counts[2] != want(5) {
		t.Errorf("live readers saw %v triples, want [%d %d %d]", counts, total, want(3), want(5))
	}
	if got := len(s.MatchNow(stripe(3))); got != want(3) {
		t.Errorf("MatchNow after close: %d triples, want %d", got, want(3))
	}
	if len(s.triples.dir) != smallPages+3 {
		t.Errorf("%d triples in %d pages, want %d", total, len(s.triples.dir), smallPages+3)
	}
}
