package store

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ltqp/internal/rdf"
)

// raceTriple builds a correlated triple: subject, predicate, and object all
// carry the same index, so any torn read (a triple assembled from two
// different inserts) is detectable by checking the correlation.
func raceTriple(i int) rdf.Triple {
	return rdf.NewTriple(
		rdf.NewIRI(fmt.Sprintf("http://example.org/s/%d", i)),
		rdf.NewIRI(fmt.Sprintf("http://example.org/p/%d", i%7)),
		rdf.NewLiteral(fmt.Sprintf("o %d %d", i, i%7)),
	)
}

// checkCorrelated fails the test if t is not one of the triples raceTriple
// can produce — i.e. if a reader or snapshot observed a torn triple.
func checkCorrelated(t *testing.T, tr rdf.Triple) {
	t.Helper()
	var i, p int
	if _, err := fmt.Sscanf(tr.S.Value, "http://example.org/s/%d", &i); err != nil {
		t.Errorf("torn or foreign subject %q", tr.S.Value)
		return
	}
	if _, err := fmt.Sscanf(tr.P.Value, "http://example.org/p/%d", &p); err != nil {
		t.Errorf("torn or foreign predicate %q", tr.P.Value)
		return
	}
	if p != i%7 {
		t.Errorf("torn triple: subject %d with predicate stripe %d", i, p)
	}
	if want := fmt.Sprintf("o %d %d", i, i%7); tr.O.Value != want {
		t.Errorf("torn triple: subject %d with object %q", i, tr.O.Value)
	}
}

// TestStoreConcurrentAddMatchBGP is the ID-keyed store's -race stress
// test: writers Add and AddDocument concurrently with readers running
// MatchNow, Source, and live BGP readers that drain the full stream. Every
// observed triple must be internally consistent (never torn) and the final
// state must contain exactly the distinct triples written.
func TestStoreConcurrentAddMatchBGP(t *testing.T) {
	const (
		writers       = 4
		perWriter     = 400
		docWriters    = 2
		docsPerWriter = 20
		perDoc        = 25
	)
	s := New()

	// A live reader over everything, started before any writes.
	all := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")))
	defer all.Release()
	iterDone := make(chan int)
	go func() {
		got := drain(context.Background(), all)
		for _, tr := range got {
			checkCorrelated(t, tr)
		}
		iterDone <- len(got)
	}()

	// A second live reader on a single predicate stripe.
	stripe := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://example.org/p/3"), rdf.NewVar("o")))
	defer stripe.Release()
	stripeDone := make(chan int)
	go func() {
		got := drain(context.Background(), stripe)
		for _, tr := range got {
			checkCorrelated(t, tr)
			if tr.P.Value != "http://example.org/p/3" {
				t.Errorf("stripe reader leaked predicate %q", tr.P.Value)
			}
		}
		stripeDone <- len(got)
	}()

	var wg sync.WaitGroup
	src := rdf.NewIRI("http://example.org/doc/add")
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Overlapping ranges across writers: dedup races included.
				s.Add(raceTriple((w*perWriter+i)%(writers*perWriter/2)), src)
			}
		}(w)
	}
	for w := 0; w < docWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < docsPerWriter; d++ {
				base := 10000 + (w*docsPerWriter+d)*perDoc
				batch := make([]rdf.Triple, perDoc)
				for i := range batch {
					batch[i] = raceTriple(base + i)
				}
				s.AddDocument(fmt.Sprintf("http://example.org/doc/%d/%d", w, d), batch)
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pat := rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI(fmt.Sprintf("http://example.org/p/%d", i%7)), rdf.NewVar("o"))
				for _, tr := range s.MatchNow(pat) {
					checkCorrelated(t, tr)
				}
				tr := raceTriple(i % 100)
				if srcTerm, ok := s.Source(tr); ok && srcTerm.IsZero() {
					t.Errorf("Source returned ok with zero term for %s", tr)
				}
				_ = s.MatchNow(pat)
			}
		}(r)
	}
	wg.Wait()
	s.Close()

	gotAll := <-iterDone
	gotStripe := <-stripeDone

	distinct := writers * perWriter / 2
	docTriples := docWriters * docsPerWriter * perDoc
	wantAll := distinct + docTriples
	if gotAll != wantAll {
		t.Errorf("live reader saw %d triples, want %d", gotAll, wantAll)
	}
	if s.Len() != wantAll {
		t.Errorf("Len = %d, want %d", s.Len(), wantAll)
	}
	wantStripe := 0
	for i := 0; i < distinct; i++ {
		if i%7 == 3 {
			wantStripe++
		}
	}
	for i := 0; i < docTriples; i++ {
		if (10000+i)%7 == 3 {
			wantStripe++
		}
	}
	if gotStripe != wantStripe {
		t.Errorf("stripe reader saw %d triples, want %d", gotStripe, wantStripe)
	}
	// Every distinct triple resolves via Source and carries a stable ID.
	d := s.Dict()
	for i := 0; i < 50; i++ {
		tr := raceTriple(i)
		if _, ok := s.Source(tr); !ok {
			t.Errorf("Source lost triple %d", i)
		}
		it, ok := d.LookupTriple(tr)
		if !ok {
			t.Errorf("dictionary lost triple %d", i)
			continue
		}
		if d.DecodeTriple(it) != tr {
			t.Errorf("unstable IDs for triple %d", i)
		}
	}
}

// TestSnapshotNeverTornUnderIngest drives a snapshotting reader (Snapshot)
// against heavy document ingest and checks that every snapshot is
// prefix-consistent: correlated triples only, monotonically growing.
func TestSnapshotNeverTornUnderIngest(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	// The writer takes one token per document and the reader hands out one
	// per snapshot, blocking once the writer is two behind. Unpaced, a slow
	// reader (-race on a loaded box) let the store, and so every snapshot,
	// grow without bound, while a fast one finished before the writer had
	// added anything.
	tokens := make(chan struct{}, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 0; ; d++ {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			batch := make([]rdf.Triple, 10)
			for i := range batch {
				batch[i] = raceTriple(d*10 + i)
			}
			s.AddDocument(fmt.Sprintf("http://example.org/ingest/%d", d), batch)
		}
	}()
	prev := 0
	for i := 0; i < 100; i++ {
		tokens <- struct{}{}
		snap := s.Snapshot()
		if len(snap) < prev {
			t.Fatalf("snapshot shrank: %d -> %d", prev, len(snap))
		}
		prev = len(snap)
		for _, tr := range snap {
			checkCorrelated(t, tr)
		}
	}
	close(stop)
	wg.Wait()
	s.Close()
}

// TestOnDemandIndexBuiltUnderIngest has the first probe of the subject and of
// the object index arrive mid-stream, from MatchNow readers, while several
// writers keep attaching documents and live BGP readers of the same two
// shapes, started mid-stream too, read the growth by position range (run
// under -race): the build sees a prefix of the stream, maintenance the
// rest, and every reader must end up with exactly the triples of its key,
// each once.
func TestOnDemandIndexBuiltUnderIngest(t *testing.T) {
	const writers, docsPerWriter, perDoc = 4, 40, 24
	s := New()
	hub := rdf.NewIRI("http://example.org/hub")
	// Half of every document's triples leave the hub, half arrive at it.
	triple := func(n int) rdf.Triple {
		p := rdf.NewIRI(fmt.Sprintf("http://example.org/p/%d", n%7))
		node := rdf.NewIRI(fmt.Sprintf("http://example.org/n/%d", n))
		if n%2 == 0 {
			return rdf.NewTriple(hub, p, node)
		}
		return rdf.NewTriple(node, p, hub)
	}
	underway := make(chan struct{}) // closed once a quarter of the documents are in
	var ingested sync.WaitGroup
	ingested.Add(writers * docsPerWriter / 4)
	go func() { ingested.Wait(); close(underway) }()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < docsPerWriter; d++ {
				doc := w*docsPerWriter + d
				batch := make([]rdf.Triple, perDoc)
				for i := range batch {
					batch[i] = triple(doc*perDoc + i)
				}
				s.AddDocument(fmt.Sprintf("http://example.org/doc/%d", doc), batch)
				if d < docsPerWriter/4 {
					ingested.Done()
				}
			}
		}(w)
	}

	<-underway
	s.mu.Lock()
	if s.bySubject != nil || s.byObject != nil {
		t.Error("subject or object index exists before anything probed its shape")
	}
	s.mu.Unlock()
	fromHub := rdf.NewTriple(hub, rdf.NewVar("p"), rdf.NewVar("o"))
	toHub := rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), hub)
	counts := make(chan [2]int, 2)
	for side, pattern := range []rdf.Triple{fromHub, toHub} {
		go func(side int, pattern rdf.Triple) {
			b := loneBGP(s, pattern)
			defer b.Release()
			seen := map[rdf.Triple]bool{}
			for _, tr := range drain(context.Background(), b) {
				if (side == 0 && tr.S != hub) || (side == 1 && tr.O != hub) || seen[tr] {
					t.Errorf("live reader %d yielded %v (seen before: %v)", side, tr, seen[tr])
				}
				seen[tr] = true
			}
			counts <- [2]int{side, len(seen)}
		}(side, pattern)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := [2]int{}
			for i := 0; i < 100; i++ {
				for side, pattern := range []rdf.Triple{fromHub, toHub} {
					n := len(s.MatchNow(pattern))
					if n < prev[side] {
						t.Errorf("MatchNow side %d went from %d to %d matches", side, prev[side], n)
					}
					prev[side] = n
				}
			}
		}()
	}
	wg.Wait()
	s.Close()

	const want = writers * docsPerWriter * perDoc / 2
	for i := 0; i < 2; i++ {
		if c := <-counts; c[1] != want {
			t.Errorf("live reader %d saw %d triples, want %d", c[0], c[1], want)
		}
	}
	for side, pattern := range []rdf.Triple{fromHub, toHub} {
		if n := len(s.MatchNow(pattern)); n != want {
			t.Errorf("side %d: %d matches in the end, want %d", side, n, want)
		}
	}
	if s.bySubject == nil || s.byObject == nil {
		t.Error("probing the subject and object shapes built no index")
	}
}
