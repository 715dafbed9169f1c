package store

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
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

// loneBGP returns a BGP over s of the one pattern, its variables in order
// of appearance.
func loneBGP(s *Store, pattern rdf.Triple) *BGP {
	var vars []string
	for _, t := range []rdf.Term{pattern.S, pattern.P, pattern.O} {
		if t.IsVar() && !slices.Contains(vars, t.Value) {
			vars = append(vars, t.Value)
		}
	}
	return s.BGP(vars, nil, []rdf.Quad{{Triple: pattern}}, nil)
}

// next calls b.Next once, into Rows of three solutions a flush, and hands fn
// every solution it appended, in order; it returns false, handing on no
// more, once fn does.
func next(ctx context.Context, b *BGP, fn func(row, srcs []rdf.TermID) bool) bool {
	rows := &Rows{Cols: make([][]rdf.TermID, len(b.row)), Cap: 3}
	deliver := func() bool {
		for i := 0; i < rows.N; i++ {
			row := make([]rdf.TermID, len(rows.Cols))
			for c := range rows.Cols {
				row[c] = rows.Cols[c][i]
			}
			var srcs []rdf.TermID
			if rows.Srcs != nil {
				srcs = rows.Srcs[i]
			}
			if !fn(row, srcs) {
				return false
			}
		}
		for c := range rows.Cols {
			rows.Cols[c] = rows.Cols[c][:0]
		}
		rows.N, rows.Srcs = 0, rows.Srcs[:0]
		return true
	}
	rows.Flush = deliver
	return b.Next(ctx, rows) && deliver()
}

// step calls b.Next once and returns the positions its lone pattern matched,
// in the order emitted: each solution, with the pattern's constants, is a
// triple the store holds once.
func step(ctx context.Context, b *BGP) ([]int32, bool) {
	var at []int32
	pt := &b.pats[0]
	ok := next(ctx, b, func(row, _ []rdf.TermID) bool {
		id := pt.p.id
		for k, c := range pt.col[:3] {
			if c >= 0 {
				id[k] = row[c]
			}
		}
		b.s.mu.Lock()
		pos, _, _ := b.s.seen.find(b.s.triples, rdf.IDTriple{S: id[0], P: id[1], O: id[2]})
		b.s.mu.Unlock()
		at = append(at, pos)
		return true
	})
	return at, ok
}

// stepTriples is step returning the matched triples.
func stepTriples(ctx context.Context, b *BGP) ([]rdf.Triple, bool) {
	at, ok := step(ctx, b)
	var out []rdf.Triple
	for _, pos := range at {
		out = append(out, b.s.dict.DecodeTriple(b.v.triples[pos]))
	}
	return out, ok
}

// drain steps b until it ends and returns every triple it matched.
func drain(ctx context.Context, b *BGP) []rdf.Triple {
	var all []rdf.Triple
	for {
		got, ok := stepTriples(ctx, b)
		all = append(all, got...)
		if !ok {
			return all
		}
	}
}

// TestLiveBGPDrainsThenBlocks reads a growing store through a BGP, the
// store's live reader: it yields what is there, blocks, resumes with the
// next document and ends once the store is closed and read.
func TestLiveBGPDrainsThenBlocks(t *testing.T) {
	s := New()
	s.Add(tp("a", "p", "b"), doc)
	b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
	defer b.Release()
	ctx, cancel := newProbeCtx()
	defer cancel()

	got, ok := stepTriples(ctx, b)
	if !ok || len(got) != 1 || got[0] != tp("a", "p", "b") {
		t.Fatalf("first step = %v, %v", got, ok)
	}
	<-ctx.checks // the first step's own check

	// Attach a document while Next blocks.
	done := make(chan []rdf.Triple)
	go func() {
		got, _ := stepTriples(ctx, b)
		done <- got
	}()
	waitBlocked(s, ctx)
	s.AddEncoded(s.dict.Intern(doc), []rdf.IDTriple{s.dict.InternTriple(tp("c", "p", "d"))})
	select {
	case got := <-done:
		if len(got) != 1 || got[0] != tp("c", "p", "d") {
			t.Errorf("live step = %v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the BGP did not observe the attached document")
	}

	// Closing the store ends the stream.
	go s.Close()
	if got := drain(ctx, b); len(got) != 0 {
		t.Errorf("after close: %v", got)
	}
	if _, ok := step(ctx, b); ok {
		t.Error("Next after close+drain should report false")
	}
}

func TestIteratorIgnoresNonMatching(t *testing.T) {
	s := New()
	b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o")))
	defer b.Release()
	s.Add(tp("a", "other", "b"), doc)
	s.Add(tp("a", "wanted", "b"), doc)
	s.Close()
	if got := drain(context.Background(), b); len(got) != 1 || got[0] != tp("a", "wanted", "b") {
		t.Errorf("got %v", got)
	}
}

func TestIteratorContextCancel(t *testing.T) {
	s := New()
	b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")))
	defer b.Release()
	ctx, cancel := newProbeCtx()
	res := make(chan bool)
	go func() {
		_, ok := step(ctx, b)
		res <- ok
	}()
	waitBlocked(s, ctx)
	cancel()
	select {
	case ok := <-res:
		if ok {
			t.Error("cancelled Next should report false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
	if _, ok := step(ctx, b); ok {
		t.Error("Next after a cancelled Next should report false")
	}
}

// TestIteratorClose closes a BGP reader: a BGP registers its context's
// cancellation hook at its first wait and keeps it across steps, and
// Release unregisters it. Without Release the hook stays registered.
func TestIteratorClose(t *testing.T) {
	for _, release := range []bool{false, true} {
		s := New()
		b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
		ctx, cancel := newProbeCtx()
		res := make(chan []rdf.Triple)
		go func() {
			got, _ := stepTriples(ctx, b)
			res <- got
		}()
		waitBlocked(s, ctx)
		s.Add(tp("a", "p", "b"), doc)
		if got := <-res; len(got) != 1 {
			t.Fatalf("the step after a wait yielded %v", got)
		}
		if b.w.stop == nil {
			t.Fatal("a BGP that waited registered no cancellation hook")
		}
		if release {
			b.Release()
		}
		// stop reports whether the hook was still registered.
		if registered := b.w.stop(); registered == release {
			t.Errorf("Release called %v: hook still registered %v", release, registered)
		}
		cancel()
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
			b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("p"), rdf.NewVar("o")))
			defer b.Release()
			n := len(drain(context.Background(), b))
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

// TestSeenSetsOnlyForPrivateVariables runs the chain (?a p ?b) (?b q ?c),
// driven from its shorter first pattern, keeping each subset of its
// variables. The first level keeps a seen-set only when it binds a
// variable that neither the caller nor the second level reads: then the
// second like's fan-out to the same ?b is skipped. A variable private to
// the last level, as the middle person of Short 3's knows/knows is, or
// none at all, builds no seen-set and skips nothing.
func TestSeenSetsOnlyForPrivateVariables(t *testing.T) {
	s := New()
	s.Add(tp("a1", "p", "b1"), doc)
	s.Add(tp("a2", "p", "b1"), doc)
	for i := 1; i <= 5; i++ {
		s.Add(tp("b1", "q", fmt.Sprintf("c%d", i)), doc)
	}
	s.Close()
	pats := []rdf.Quad{
		{Triple: rdf.NewTriple(rdf.NewVar("a"), iri("p"), rdf.NewVar("b"))},
		{Triple: rdf.NewTriple(rdf.NewVar("b"), iri("q"), rdf.NewVar("c"))},
	}
	for _, c := range []struct {
		keep []string
		rows int
		seen bool
	}{
		{nil, 10, false},
		{[]string{"a", "b", "c"}, 10, false},
		{[]string{"a", "c"}, 10, false},
		{[]string{"a"}, 10, false},
		{[]string{"b", "c"}, 5, true},
		{[]string{"c"}, 5, true},
		{[]string{}, 5, true},
	} {
		b := s.BGP([]string{"a", "b", "c"}, c.keep, pats, nil)
		rows := 0
		for next(context.Background(), b, func(_, _ []rdf.TermID) bool { rows++; return true }) {
		}
		if seen := b.seen != nil && b.seen[0] != nil; rows != c.rows || seen != c.seen {
			t.Errorf("keeping %v: %d rows, seen-set %v; want %d, %v", c.keep, rows, seen, c.rows, c.seen)
		}
		b.Release()
	}
}

// TestSeenSetsLastOneDrive grows a store under the chain (?a p ?b)
// (?b q ?c) (?c r ?d), keeping ?a and ?d. In the second step the p driver's
// second level keeps a seen-set on (?a, ?c) and meets (y, w); the r
// driver's second level, later in the same step, keeps one on (?b, ?d) and
// meets (y, w) too, on its way to the step's one new answer, (y, w). A set
// that outlived the p driver's drive would skip that row and lose it.
func TestSeenSetsLastOneDrive(t *testing.T) {
	s := New()
	v := rdf.NewVar
	b := s.BGP([]string{"a", "b", "c", "d"}, []string{"a", "d"}, []rdf.Quad{
		{Triple: rdf.NewTriple(v("a"), iri("p"), v("b"))},
		{Triple: rdf.NewTriple(v("b"), iri("q"), v("c"))},
		{Triple: rdf.NewTriple(v("c"), iri("r"), v("d"))},
	}, nil)
	defer b.Release()
	rows := 0
	count := func(_, _ []rdf.TermID) bool { rows++; return true }
	ctx := context.Background()
	s.AddDocument("http://example.org/d1", []rdf.Triple{tp("y", "p", "y"), tp("y", "q", "y"), tp("y", "r", "y")})
	next(ctx, b, count)
	s.AddDocument("http://example.org/d2", []rdf.Triple{tp("y", "p", "u"), tp("u", "q", "w"), tp("y", "r", "w")})
	s.Close()
	for next(ctx, b, count) {
	}
	if rows != 2 {
		t.Errorf("%d solutions, want 2", rows)
	}
}

// TestSeenSetKeysOnEarlierColumns runs (?a p ?b) (?b q ?c) (?a r ?d),
// keeping ?d, over a closed store. The second level kills ?b and ?c but ?a,
// bound by the first, is still read by the third, so the second level's
// seen-set keys on ?a: both answers survive.
func TestSeenSetKeysOnEarlierColumns(t *testing.T) {
	s := New()
	for _, tr := range []rdf.Triple{tp("a1", "p", "b1"), tp("a2", "p", "b2"), tp("b1", "q", "c1"),
		tp("b2", "q", "c2"), tp("a1", "r", "d1"), tp("a2", "r", "d2")} {
		s.Add(tr, doc)
	}
	s.Close()
	v := rdf.NewVar
	b := s.BGP([]string{"a", "b", "c", "d"}, []string{"d"}, []rdf.Quad{
		{Triple: rdf.NewTriple(v("a"), iri("p"), v("b"))},
		{Triple: rdf.NewTriple(v("b"), iri("q"), v("c"))},
		{Triple: rdf.NewTriple(v("a"), iri("r"), v("d"))},
	}, nil)
	defer b.Release()
	got := map[rdf.TermID]bool{}
	for next(context.Background(), b, func(row, _ []rdf.TermID) bool { got[row[3]] = true; return true }) {
	}
	if len(got) != 2 || b.seen[1] == nil {
		t.Errorf("%d distinct ?d, want 2; second level's seen-set %v", len(got), b.seen[1])
	}
}
