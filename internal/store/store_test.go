package store

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ltqp/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

func tp(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

var doc = rdf.NewIRI("http://example.org/doc1")

func TestAddDedup(t *testing.T) {
	s := New()
	if !s.Add(tp("a", "p", "b"), doc) {
		t.Error("first add should be new")
	}
	if s.Add(tp("a", "p", "b"), doc) {
		t.Error("duplicate add should report false")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	src, ok := s.Source(tp("a", "p", "b"))
	if !ok || src != doc {
		t.Errorf("Source = %v, %v", src, ok)
	}
	if _, ok := s.Source(tp("x", "p", "y")); ok {
		t.Error("Source of absent triple should report false")
	}
}

func TestAddAfterClose(t *testing.T) {
	s := New()
	s.Close()
	if s.Add(tp("a", "p", "b"), doc) {
		t.Error("add after close should be rejected")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.WaitClosed(ctx); err != nil {
		t.Errorf("WaitClosed on a closed store = %v", err)
	}
	s.Close() // idempotent
}

func TestAddDocument(t *testing.T) {
	s := New()
	n := s.AddDocument("http://example.org/doc1", []rdf.Triple{
		tp("a", "p", "b"), tp("a", "p", "c"), tp("a", "p", "b"),
	})
	if n != 2 {
		t.Errorf("new triples = %d, want 2", n)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestMatchNowIndexSelection(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Add(tp(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i%3)), doc)
		s.Add(tp(fmt.Sprintf("s%d", i), "q", "fixed"), doc)
	}
	// By subject.
	if got := s.MatchNow(rdf.NewTriple(iri("s3"), rdf.NewVar("p"), rdf.NewVar("o"))); len(got) != 2 {
		t.Errorf("by-subject match = %d", len(got))
	}
	// By object.
	if got := s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), iri("fixed"))); len(got) != 10 {
		t.Errorf("by-object match = %d", len(got))
	}
	// By predicate.
	if got := s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o"))); len(got) != 10 {
		t.Errorf("by-predicate match = %d", len(got))
	}
	// Full scan.
	if got := s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o"))); len(got) != 20 {
		t.Errorf("full scan = %d", len(got))
	}
	// By predicate and object.
	if got := s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), iri("q"), iri("fixed"))); len(got) != 10 {
		t.Errorf("by-predicate-object match = %d", len(got))
	}
}

func TestLiveIteratorDrainsThenBlocks(t *testing.T) {
	s := New()
	s.Add(tp("a", "p", "b"), doc)
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
	defer it.Close()
	ctx := context.Background()

	got, ok := it.Next(ctx)
	if !ok || got != tp("a", "p", "b") {
		t.Fatalf("first Next = %v, %v", got, ok)
	}

	// Add from another goroutine while Next blocks.
	done := make(chan rdf.Triple)
	go func() {
		tr, ok := it.Next(ctx)
		if !ok {
			close(done)
			return
		}
		done <- tr
	}()
	time.Sleep(20 * time.Millisecond)
	s.Add(tp("c", "p", "d"), doc)
	select {
	case tr := <-done:
		if tr != tp("c", "p", "d") {
			t.Errorf("live triple = %v", tr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("iterator did not observe live addition")
	}

	// Closing the store ends the stream.
	go s.Close()
	if _, ok := it.Next(ctx); ok {
		t.Error("Next after close+drain should report false")
	}
}

func TestIteratorIgnoresNonMatching(t *testing.T) {
	s := New()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o")))
	defer it.Close()
	s.Add(tp("a", "other", "b"), doc)
	s.Add(tp("a", "wanted", "b"), doc)
	s.Close()
	var got []rdf.Triple
	for {
		tr, ok := it.Next(context.Background())
		if !ok {
			break
		}
		got = append(got, tr)
	}
	if len(got) != 1 || got[0] != tp("a", "wanted", "b") {
		t.Errorf("got %v", got)
	}
}

func TestIteratorContextCancel(t *testing.T) {
	s := New()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")))
	defer it.Close()
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan bool)
	go func() {
		_, ok := it.Next(ctx)
		res <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case ok := <-res:
		if ok {
			t.Error("cancelled Next should report false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
}

func TestIteratorClose(t *testing.T) {
	s := New()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")))
	res := make(chan bool)
	go func() {
		_, ok := it.Next(context.Background())
		res <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	it.Close()
	select {
	case ok := <-res:
		if ok {
			t.Error("closed iterator should report false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not observe iterator close")
	}
	if !it.Done() {
		t.Error("closed iterator should be Done")
	}
}

func TestTryNextAndDone(t *testing.T) {
	s := New()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
	defer it.Close()
	if _, ok := it.TryNext(); ok {
		t.Error("TryNext on empty store should be false")
	}
	if it.Done() {
		t.Error("open store: iterator is not Done even when drained")
	}
	s.Add(tp("a", "p", "b"), doc)
	if tr, ok := it.TryNext(); !ok || tr != tp("a", "p", "b") {
		t.Errorf("TryNext = %v, %v", tr, ok)
	}
	s.Close()
	if !it.Done() {
		t.Error("closed+drained iterator should be Done")
	}
}

func TestDoneDoesNotConsume(t *testing.T) {
	s := New()
	s.Add(tp("a", "p", "b"), doc)
	s.Close()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
	defer it.Close()
	if it.Done() {
		t.Error("iterator with pending match should not be Done")
	}
	// The peek inside Done must not consume the match.
	if tr, ok := it.TryNext(); !ok || tr != tp("a", "p", "b") {
		t.Errorf("TryNext after Done peek = %v, %v", tr, ok)
	}
}

func TestWaitClosed(t *testing.T) {
	s := New()
	done := make(chan error)
	go func() { done <- s.WaitClosed(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("WaitClosed = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitClosed did not return after Close")
	}

	s2 := New()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- s2.WaitClosed(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("WaitClosed on cancel should return the context error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitClosed did not observe cancellation")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s := New()
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Add(tp(fmt.Sprintf("s%d-%d", p, i), "p", "o"), doc)
			}
		}(p)
	}
	var consumed int
	var cwg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
			defer it.Close()
			n := 0
			for {
				_, ok := it.Next(context.Background())
				if !ok {
					break
				}
				n++
			}
			mu.Lock()
			consumed += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	s.Close()
	cwg.Wait()
	if want := producers * perProducer * 3; consumed != want {
		t.Errorf("consumed = %d, want %d", consumed, want)
	}
	if s.Len() != producers*perProducer {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New()
	s.Add(tp("a", "p", "b"), doc)
	snap := s.Snapshot()
	s.Add(tp("c", "p", "d"), doc)
	if len(snap) != 1 {
		t.Errorf("snapshot should not grow: %d", len(snap))
	}
}

func TestMatchNowEqualsIteratorDrain(t *testing.T) {
	// Property: for a closed store, MatchNow and iterator drain agree.
	f := func(seed int64) bool {
		s := New()
		r := seed
		next := func(n int64) int64 {
			r = r*6364136223846793005 + 1442695040888963407
			v := r % n
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < 100; i++ {
			s.Add(tp(
				fmt.Sprintf("s%d", next(10)),
				fmt.Sprintf("p%d", next(4)),
				fmt.Sprintf("o%d", next(6)),
			), doc)
		}
		s.Close()
		pattern := rdf.NewTriple(rdf.NewVar("s"), iri(fmt.Sprintf("p%d", next(4))), rdf.NewVar("o"))
		want := s.MatchNow(pattern)
		it := s.Match(pattern)
		defer it.Close()
		var got []rdf.Triple
		for {
			tr, ok := it.Next(context.Background())
			if !ok {
				break
			}
			got = append(got, tr)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
