package store

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ltqp/internal/rdf"
)

func TestSourceAttribution(t *testing.T) {
	s := New()
	tr := rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"))
	if _, ok := s.Source(tr); ok {
		t.Fatal("Source found an unknown triple")
	}
	s.Add(tr, rdf.NewIRI("http://pod/first.ttl"))
	src, ok := s.Source(tr)
	if !ok || src.Value != "http://pod/first.ttl" {
		t.Fatalf("Source = %v, %v", src, ok)
	}
}

// TestSourceFirstWriterWins: a duplicate triple from a second document must
// not steal attribution — the solution's provenance names the document that
// actually contributed the triple to the store.
func TestSourceFirstWriterWins(t *testing.T) {
	s := New()
	tr := rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"))
	if !s.Add(tr, rdf.NewIRI("http://pod/first.ttl")) {
		t.Fatal("first Add rejected")
	}
	if s.Add(tr, rdf.NewIRI("http://pod/second.ttl")) {
		t.Fatal("duplicate Add accepted")
	}
	src, ok := s.Source(tr)
	if !ok || src.Value != "http://pod/first.ttl" {
		t.Fatalf("attribution stolen by duplicate: %v", src)
	}
}

// TestSourceConcurrent hammers Add, a live BGP and Source from many goroutines
// (run under -race): every attributed source must be one of the documents
// that actually inserted the triple, and duplicates across workers must
// resolve to a single stable attribution.
func TestSourceConcurrent(t *testing.T) {
	s := New()
	const workers = 8
	const triplesPerWorker = 200
	p := rdf.NewIRI("http://x/p")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			doc := rdf.NewIRI(fmt.Sprintf("http://pod/doc%d.ttl", w))
			for i := 0; i < triplesPerWorker; i++ {
				// Half the key space is shared across workers, forcing
				// duplicate insertions under contention.
				tr := rdf.NewTriple(
					rdf.NewIRI(fmt.Sprintf("http://x/s%d", i%(triplesPerWorker/2))),
					p,
					rdf.NewIRI(fmt.Sprintf("http://x/o%d", i)),
				)
				s.Add(tr, doc)
				if src, ok := s.Source(tr); !ok || src.Value == "" {
					t.Errorf("triple lost its source under concurrency")
					return
				}
			}
		}(w)
	}
	// A reader drains a live BGP while writers insert.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), p, rdf.NewVar("o")))
		defer b.Release()
		for {
			got, ok := stepTriples(context.Background(), b)
			for _, tr := range got {
				if src, ok := s.Source(tr); !ok || src.Value == "" {
					t.Error("matched triple has no source")
					return
				}
			}
			if !ok {
				return
			}
		}
	}()
	wg.Wait()
	s.Close()
	<-readerDone

	// Attribution is stable after the dust settles: re-query every triple.
	for _, tr := range s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), p, rdf.NewVar("o"))) {
		src, ok := s.Source(tr)
		if !ok {
			t.Fatalf("no source for stored triple %v", tr)
		}
		if src.Kind != rdf.TermIRI {
			t.Fatalf("source is not an IRI: %v", src)
		}
	}
}
