// Package store provides the engine's internal triple source: a concurrent,
// append-only, indexed triple store that grows while link traversal is
// running and supports *live* pattern iterators.
//
// A live iterator first streams all currently known matches of a triple
// pattern and then blocks until either new matching triples arrive or the
// store is closed (traversal finished). This is what allows the query
// pipeline to start producing results while documents are still being
// dereferenced, as described in the paper's architecture (Fig. 1).
//
// Internally the store is dictionary-encoded: every term is interned in an
// engine-scoped rdf.Dict, triples are stored and deduplicated as 12-byte
// rdf.IDTriple values, and the pattern indexes are keyed by integer TermIDs
// (plus uint64 composite keys for the two-constant (s,p) and (p,o) shapes).
// The hot ingest and match paths therefore hash and compare small integers
// instead of lexical strings; terms are decoded back to rdf.Term only at
// the iterator emission boundary.
package store

import (
	"context"
	"sync"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
)

// Store is the growing internal triple source. The zero value is not usable;
// construct with New or NewWithDict.
//
// Triples are deduplicated set-wise (the source is the union of all
// dereferenced documents), while provenance (which document contributed a
// triple first) is retained for link extraction and diagnostics.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond

	// dict is the term dictionary all IDs below refer to. It may be shared
	// with the parser and document cache of the owning engine.
	dict *rdf.Dict

	triples []rdf.IDTriple
	sources []rdf.TermID // sources[i] is the document triples[i] came from
	seen    map[rdf.IDTriple]int32

	// The pattern indexes (see postings.go for their layout); runs is the
	// arena their longer lists share.
	bySubject, byPredicate, byObject *postings
	// Composite two-constant indexes: star joins overwhelmingly probe the
	// (?s, p, o) and (s, p, ?o) shapes, which these answer exactly instead
	// of filtering a one-constant candidate list. They are built lazily on
	// the first probe of their shape (nil until then), so pure ingest never
	// pays their per-triple cost; once built they are maintained on every
	// add.
	bySP, byPO *postings
	runs       arena

	closed    bool
	documents map[string]bool // document IRIs ingested

	// ledger, when set, is charged resource.Store bytes for every distinct
	// triple and index posting this store retains on behalf of its query.
	// Store memory is released only when the query ends (the store is
	// query-local and append-only), so charges are never released here.
	ledger *resource.Ledger
}

// Estimated retained bytes per distinct triple: the 12-byte IDTriple, its
// 4-byte source entry, the seen-map entry (~28 bytes of key+value+bucket
// overhead), and one 4-byte posting in each of the three single-constant
// indexes. Composite (SP/PO) postings are charged separately when those
// indexes exist.
const (
	bytesPerTriple           = 12 + 4 + 28 + 3*4
	bytesPerCompositePosting = 4
)

// New returns an empty open store with its own private term dictionary.
func New() *Store {
	return NewWithDict(rdf.NewDict())
}

// NewWithDict returns an empty open store interning into the given
// dictionary. An engine shares one dictionary between its parser, document
// cache, and the per-query stores, so repeated documents intern to the same
// IDs across queries.
func NewWithDict(dict *rdf.Dict) *Store {
	s := &Store{
		dict:      dict,
		seen:      make(map[rdf.IDTriple]int32),
		documents: make(map[string]bool),
	}
	s.bySubject = newPostings(&s.runs, 0)
	s.byPredicate = newPostings(&s.runs, 0)
	s.byObject = newPostings(&s.runs, 0)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Dict returns the store's term dictionary.
func (s *Store) Dict() *rdf.Dict { return s.dict }

// SetLedger attaches the owning query's resource ledger. Call before
// ingest starts; a nil ledger (the default) keeps accounting off.
func (s *Store) SetLedger(l *resource.Ledger) {
	s.mu.Lock()
	s.ledger = l
	s.mu.Unlock()
}

// Add inserts one triple attributed to the given source document. It
// reports whether the triple was new. Adding to a closed store is a no-op
// returning false.
func (s *Store) Add(t rdf.Triple, source rdf.Term) bool {
	// Intern outside the store lock: interning takes the dictionary's
	// stripe locks and must not extend the critical section that blocks
	// live iterators.
	it := s.dict.InternTriple(t)
	src := s.dict.Intern(source)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if !s.addLocked(it, src) {
		return false
	}
	s.cond.Broadcast()
	return true
}

// addLocked inserts one interned triple. Caller holds s.mu.
func (s *Store) addLocked(t rdf.IDTriple, src rdf.TermID) bool {
	if _, dup := s.seen[t]; dup {
		return false
	}
	i := int32(len(s.triples))
	s.seen[t] = i
	s.triples = append(s.triples, t)
	s.sources = append(s.sources, src)
	s.bySubject.add(uint64(t.S), i)
	s.byPredicate.add(uint64(t.P), i)
	s.byObject.add(uint64(t.O), i)
	charge := int64(bytesPerTriple)
	if s.bySP != nil {
		s.bySP.add(t.SP(), i)
		charge += bytesPerCompositePosting
	}
	if s.byPO != nil {
		s.byPO.add(t.PO(), i)
		charge += bytesPerCompositePosting
	}
	s.ledger.Charge(resource.Store, charge)
	return true
}

// AddDocument ingests all triples of a dereferenced document and reports
// how many were new. It also records the document IRI. The whole document
// is interned outside the store lock, then ingested by AddEncoded.
func (s *Store) AddDocument(docIRI string, triples []rdf.Triple) int {
	ids := make([]rdf.IDTriple, len(triples))
	for i, t := range triples {
		ids[i] = s.dict.InternTriple(t)
	}
	return s.AddEncoded(docIRI, s.dict.Intern(rdf.NewIRI(docIRI)), ids)
}

// AddEncoded is AddDocument for a document that is already encoded: ids and
// src (the document IRI's ID) must come from this store's dictionary, and
// ids is only read. The document is inserted under one lock acquisition
// with a single iterator wakeup, so ingest cost per document is one
// critical section, not one per triple, and nothing is interned.
func (s *Store) AddEncoded(docIRI string, src rdf.TermID, ids []rdf.IDTriple) int {
	n := 0
	s.mu.Lock()
	if !s.closed {
		for _, it := range ids {
			if s.addLocked(it, src) {
				n++
			}
		}
		if n > 0 {
			s.cond.Broadcast()
		}
	}
	s.documents[docIRI] = true
	s.mu.Unlock()
	return n
}

// Close marks the store complete: no further triples will arrive. All
// blocked iterators drain their remaining matches and then terminate.
// Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
}

// Closed reports whether the store has been closed.
func (s *Store) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Len returns the number of distinct triples currently in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.triples)
}

// DocumentCount returns the number of documents ingested so far.
func (s *Store) DocumentCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.documents)
}

// Source returns the document a ground triple was first contributed by.
func (s *Store) Source(t rdf.Triple) (rdf.Term, bool) {
	it, ok := s.dict.LookupTriple(t)
	if !ok {
		return rdf.Term{}, false
	}
	s.mu.Lock()
	i, ok := s.seen[it]
	var src rdf.TermID
	if ok {
		src = s.sources[i]
	}
	s.mu.Unlock()
	if !ok {
		return rdf.Term{}, false
	}
	return s.dict.Decode(src), true
}

// idPattern is a compiled triple pattern: each position is either a
// constant TermID or a variable slot. Repeated variables (e.g. ?x :p ?x)
// compile to equality constraints between positions.
type idPattern struct {
	id    [3]rdf.TermID // constant ID per position (NoTerm for undef constants)
	isVar [3]bool       // position is a wildcard
	// sameAs[i] >= 0 requires position i to equal position sameAs[i]
	// (repeated variable).
	sameAs [3]int8
}

// compilePattern interns the constant positions of a pattern. Interning
// (rather than looking up) keeps live semantics: a constant term that has
// not been seen yet receives its final ID now, so the pattern starts
// matching the moment traversal contributes the term.
func (s *Store) compilePattern(pattern rdf.Triple) idPattern {
	var p idPattern
	p.sameAs = [3]int8{-1, -1, -1}
	pos := [3]rdf.Term{pattern.S, pattern.P, pattern.O}
	for i, t := range pos {
		if t.Kind == rdf.TermVar {
			p.isVar[i] = true
			for j := 0; j < i; j++ {
				if pos[j].Kind == rdf.TermVar && pos[j].Value == t.Value {
					p.sameAs[i] = int8(j)
					break
				}
			}
			continue
		}
		// Undef compiles to NoTerm, which no ground triple position carries
		// unless the data itself holds an undef term — preserving the
		// pre-dictionary semantics of undef-as-constant.
		p.id[i] = s.dict.Intern(t)
	}
	return p
}

// matches reports whether the compiled pattern matches an ID triple.
func (p *idPattern) matches(t rdf.IDTriple) bool {
	ids := [3]rdf.TermID{t.S, t.P, t.O}
	for i := 0; i < 3; i++ {
		if p.isVar[i] {
			if j := p.sameAs[i]; j >= 0 && ids[i] != ids[j] {
				return false
			}
			continue
		}
		if ids[i] != p.id[i] {
			return false
		}
	}
	return true
}

// fullScan reports whether the pattern has no constant position.
func (p *idPattern) fullScan() bool {
	for i := 0; i < 3; i++ {
		if !p.isVar[i] {
			// An undef "constant" is not indexable (its ID is NoTerm, which
			// is never indexed), but it also matches nothing; the full-scan
			// path handles it like the pre-dictionary store did.
			if p.id[i] == rdf.NoTerm {
				continue
			}
			return false
		}
	}
	return true
}

// candidates returns the index list to scan for a compiled pattern,
// choosing the most selective available index. Caller holds s.mu; the list
// aliases the index and must not be used after the lock is released.
func (s *Store) candidates(p *idPattern) []int32 {
	constS := !p.isVar[0] && p.id[0] != rdf.NoTerm
	constP := !p.isVar[1] && p.id[1] != rdf.NoTerm
	constO := !p.isVar[2] && p.id[2] != rdf.NoTerm
	switch {
	case constS && constP:
		if s.bySP == nil {
			s.bySP = s.buildComposite(rdf.IDTriple.SP)
		}
		return s.bySP.list(rdf.PackID2(p.id[0], p.id[1]))
	case constP && constO:
		if s.byPO == nil {
			s.byPO = s.buildComposite(rdf.IDTriple.PO)
		}
		return s.byPO.list(rdf.PackID2(p.id[1], p.id[2]))
	case constS:
		return s.bySubject.list(uint64(p.id[0]))
	case constO:
		return s.byObject.list(uint64(p.id[2]))
	case constP:
		return s.byPredicate.list(uint64(p.id[1]))
	default:
		return nil // full scan
	}
}

// buildComposite indexes every current triple under key, on the first probe
// of a two-constant shape. Caller holds s.mu.
func (s *Store) buildComposite(key func(rdf.IDTriple) uint64) *postings {
	ps := newPostings(&s.runs, len(s.triples))
	for i, t := range s.triples {
		ps.add(key(t), int32(i))
	}
	s.ledger.Charge(resource.Store, int64(len(s.triples))*bytesPerCompositePosting)
	return ps
}

// MatchNow returns a snapshot of all current matches of the pattern.
func (s *Store) MatchNow(pattern rdf.Triple) []rdf.Triple {
	p := s.compilePattern(pattern)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []rdf.Triple
	if p.fullScan() {
		for _, t := range s.triples {
			if p.matches(t) {
				out = append(out, s.dict.DecodeTriple(t))
			}
		}
		return out
	}
	for _, i := range s.candidates(&p) {
		if t := s.triples[i]; p.matches(t) {
			out = append(out, s.dict.DecodeTriple(t))
		}
	}
	return out
}

// CountNow returns the number of current matches of the pattern. It is used
// by cardinality-estimating planners and tests.
func (s *Store) CountNow(pattern rdf.Triple) int {
	p := s.compilePattern(pattern)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	if p.fullScan() {
		for _, t := range s.triples {
			if p.matches(t) {
				n++
			}
		}
		return n
	}
	for _, i := range s.candidates(&p) {
		if p.matches(s.triples[i]) {
			n++
		}
	}
	return n
}

// Match returns a live iterator over current and future matches of the
// pattern. The iterator terminates once the store is closed and all matches
// are drained, or when the iterator itself is closed.
func (s *Store) Match(pattern rdf.Triple) *Iterator {
	p := s.compilePattern(pattern)
	return &Iterator{store: s, pattern: p, scan: p.fullScan()}
}

// Iterator is a live triple-pattern iterator. It is not safe for concurrent
// use by multiple goroutines; each pipeline operator owns its iterators.
type Iterator struct {
	store   *Store
	pattern idPattern
	// next is the cursor: an index into the candidate list (or the triples
	// slice for full scans) of the next entry to examine.
	next   int
	scan   bool
	closed bool
	mu     sync.Mutex
}

// Next blocks until a new matching triple is available and returns it, or
// returns ok=false when the store closed (and matches are exhausted), the
// iterator was closed, or the context was cancelled.
func (it *Iterator) Next(ctx context.Context) (rdf.Triple, bool) {
	s := it.store

	// Wake the wait loop when the context is cancelled. We register a
	// broadcast goroutine lazily per Next call only when we actually need
	// to block, to keep the fast path allocation-free.
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if it.isClosed() || ctx.Err() != nil {
			return rdf.Triple{}, false
		}
		if t, ok := it.scanLocked(); ok {
			return s.dict.DecodeTriple(t), true
		}
		if s.closed {
			return rdf.Triple{}, false
		}
		// Block until new triples arrive or the store closes. A helper
		// goroutine turns context cancellation into a broadcast.
		stop := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stop:
			}
		}()
		s.cond.Wait()
		close(stop)
	}
}

// TryNext returns the next available match without blocking.
func (it *Iterator) TryNext() (rdf.Triple, bool) {
	s := it.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.isClosed() {
		return rdf.Triple{}, false
	}
	t, ok := it.scanLocked()
	if !ok {
		return rdf.Triple{}, false
	}
	return s.dict.DecodeTriple(t), true
}

// Done reports whether the iterator can produce no further results without
// blocking AND the store is closed — i.e. the stream has truly ended.
func (it *Iterator) Done() bool {
	it.store.mu.Lock()
	defer it.store.mu.Unlock()
	if it.isClosed() {
		return true
	}
	if !it.store.closed {
		return false
	}
	// Peek: are there unscanned matches left?
	save := it.next
	_, ok := it.scanLocked()
	it.next = save
	return !ok
}

// scanLocked advances the cursor to the next match. Caller holds store.mu.
func (it *Iterator) scanLocked() (rdf.IDTriple, bool) {
	t, _, ok := it.scanLockedIdx()
	return t, ok
}

// Close releases the iterator; pending and future Next calls return false.
func (it *Iterator) Close() {
	it.mu.Lock()
	it.closed = true
	it.mu.Unlock()
	it.store.mu.Lock()
	it.store.cond.Broadcast()
	it.store.mu.Unlock()
}

func (it *Iterator) isClosed() bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.closed
}

// Snapshot returns a copy of all triples currently in the store, in
// insertion order. Used by blocking operators and the centralized baseline.
func (s *Store) Snapshot() []rdf.Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Triple, len(s.triples))
	for i, t := range s.triples {
		out[i] = s.dict.DecodeTriple(t)
	}
	return out
}

// WaitClosed blocks until the store is closed or the context is cancelled.
// Blocking operators (ORDER BY, OPTIONAL, aggregation) use it to gate their
// final emission on traversal quiescence.
func (s *Store) WaitClosed(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		stop := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stop:
			}
		}()
		s.cond.Wait()
		close(stop)
	}
	return nil
}
