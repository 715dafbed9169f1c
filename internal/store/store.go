// Package store provides the engine's internal triple source: a concurrent,
// append-only, indexed triple store that grows while link traversal is
// running, and evaluates basic graph patterns over it incrementally.
//
// The executor reads it through BGP (bgp.go), which joins a basic graph
// pattern's triple patterns over the store's positions each time the store
// grows, blocking in between until new triples arrive or the store is
// closed (traversal finished). This is what allows the query pipeline to
// start producing results while documents are still being dereferenced, as
// described in the paper's architecture (Fig. 1). MatchNow answers a single
// pattern once, over the triples held at the time of the call.
//
// Internally the store is dictionary-encoded: every term is interned in an
// engine-scoped rdf.Dict, triples are stored once as 12-byte rdf.IDTriple
// values and deduplicated through a table of their positions, and the pattern
// indexes are keyed by integer TermIDs (plus uint64 composite keys for the
// two-constant (s,p) and (p,o) shapes).
// The hot ingest and match paths therefore hash and compare small integers
// instead of lexical strings; terms are decoded back to rdf.Term only by
// MatchNow and Snapshot, and by the executor at its projection boundary.
package store

import (
	"context"
	"slices"
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
	// wake broadcasts cond under mu: what a blocked call's cancellation runs
	// (see waitLocked), made once per store rather than once per wait.
	wake func()

	// dict is the term dictionary all IDs below refer to. It may be shared
	// with the parser and document cache of the owning engine.
	dict *rdf.Dict

	// triples holds every distinct triple at its position (see log.go).
	triples tripleLog
	// seen finds a triple's position in triples (see postings.go).
	seen positions
	// origins attributes triples to the documents that contributed them
	// first: the triples from origins[k].from up to origins[k+1].from came
	// from origins[k].src. A document is one entry, not one per triple.
	origins []origin

	// The pattern indexes (see postings.go for their layout); runs is the
	// arena their longer lists share. Nearly every pattern names a predicate,
	// so byPredicate is maintained from the start.
	byPredicate *postings
	// The other indexes exist once somebody reads them: each is nil until
	// the first probe of its shape builds it from the triples held then, and
	// is maintained on every add from there on. Star joins probe the
	// (s, p, ?o) and (?s, p, o) shapes, which bySP and byPO answer exactly;
	// most queries never probe bySubject or byObject, and pure ingest pays
	// for none of the four.
	bySubject, byObject, bySP, byPO *postings
	runs                            arena
	// perTriple is the ledger's charge for a new triple and its postings.
	perTriple int64

	closed bool

	// ledger, when set, is charged resource.Store bytes for every distinct
	// triple and index posting this store retains on behalf of its query.
	// Store memory is released only when the query ends (the store is
	// query-local and append-only), so charges are never released here.
	ledger *resource.Ledger
}

// origin starts a run of triples contributed by one document.
type origin struct {
	from int32
	src  rdf.TermID
}

// Estimated retained bytes per distinct triple: the 12-byte IDTriple, its
// slot in the position table (4 bytes at a load between 3/8 and 3/4) and its
// 4-byte predicate posting. A posting in each index built on demand is
// charged on top while that index exists.
const (
	bytesPerTriple  = 12 + 8 + 4
	bytesPerPosting = 4
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
		seen:      positions{slots: make([]int32, 64)},
		perTriple: bytesPerTriple,
	}
	s.byPredicate = newPostings(&s.runs, 0)
	s.cond = sync.NewCond(&s.mu)
	s.wake = func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
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
	// stripe locks and must not extend the critical section that readers
	// wait on.
	it := s.dict.InternTriple(t)
	src := s.dict.Intern(source)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(src, it) == 1
}

// addLocked inserts the interned triples ids, contributed by document src,
// and returns how many were new. Caller holds s.mu.
func (s *Store) addLocked(src rdf.TermID, ids ...rdf.IDTriple) int {
	if s.closed {
		return 0
	}
	first := s.triples.len()
	s.seen.reserve(&s.triples, len(ids))
	for _, t := range ids {
		_, slot, dup := s.seen.find(&s.triples, t)
		if dup {
			continue
		}
		i := s.triples.len()
		s.triples.append(t)
		s.seen.slots[slot] = i + 1
		s.byPredicate.add(uint64(t.P), i)
		if s.bySubject != nil {
			s.bySubject.add(uint64(t.S), i)
		}
		if s.byObject != nil {
			s.byObject.add(uint64(t.O), i)
		}
		if s.bySP != nil {
			s.bySP.add(t.SP(), i)
		}
		if s.byPO != nil {
			s.byPO.add(t.PO(), i)
		}
	}
	n := s.triples.len() - first
	if n == 0 {
		return 0
	}
	if k := len(s.origins); k == 0 || s.origins[k-1].src != src {
		s.origins = append(s.origins, origin{from: first, src: src})
	}
	s.ledger.Charge(resource.Store, int64(n)*s.perTriple)
	s.cond.Broadcast()
	return int(n)
}

// AddDocument ingests all triples of a dereferenced document, with the
// document IRI as their source, and reports how many were new. The whole
// document is interned outside the store lock, then ingested by AddEncoded.
func (s *Store) AddDocument(docIRI string, triples []rdf.Triple) int {
	ids := make([]rdf.IDTriple, len(triples))
	for i, t := range triples {
		ids[i] = s.dict.InternTriple(t)
	}
	return s.AddEncoded(s.dict.Intern(rdf.NewIRI(docIRI)), ids)
}

// AddEncoded is AddDocument for a document that is already encoded: ids and
// src (the document IRI's ID) must come from this store's dictionary, and
// ids is only read. The document is inserted under one lock acquisition
// with a single wake-up of the blocked readers, so ingest cost per document
// is one critical section, not one per triple, and nothing is interned.
func (s *Store) AddEncoded(src rdf.TermID, ids []rdf.IDTriple) int {
	s.mu.Lock()
	n := s.addLocked(src, ids...)
	s.mu.Unlock()
	return n
}

// Close marks the store complete: no further triples will arrive. Every
// blocked BGP reads what it has not read yet and then ends, and WaitClosed
// returns.
// Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
}

// Len returns the number of distinct triples currently in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.triples.len())
}

// Source returns the document a ground triple was first contributed by.
func (s *Store) Source(t rdf.Triple) (rdf.Term, bool) {
	it, ok := s.dict.LookupTriple(t)
	if !ok {
		return rdf.Term{}, false
	}
	s.mu.Lock()
	var src rdf.TermID
	i, _, ok := s.seen.find(&s.triples, it)
	if ok {
		src = view{origins: s.origins}.source(i)
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

// candidates returns the posting list to read for p, or all when every
// position must be read instead. With index it is the most selective list
// of the store's, built on the first probe of its shape; without, the
// predicate's, the one index every store keeps from the start. An undef
// "constant" (NoTerm) is never indexed, and matches nothing. Caller holds
// s.mu; the list aliases the index and must not be used after the lock is
// released.
func (s *Store) candidates(p *idPattern, index bool) (list []int32, all bool) {
	constS := !p.isVar[0] && p.id[0] != rdf.NoTerm
	constP := !p.isVar[1] && p.id[1] != rdf.NoTerm
	constO := !p.isVar[2] && p.id[2] != rdf.NoTerm
	switch {
	case index && constS && constP:
		return s.index(&s.bySP, rdf.IDTriple.SP).list(rdf.PackID2(p.id[0], p.id[1])), false
	case index && constP && constO:
		return s.index(&s.byPO, rdf.IDTriple.PO).list(rdf.PackID2(p.id[1], p.id[2])), false
	case index && constS:
		return s.index(&s.bySubject, subjectKey).list(uint64(p.id[0])), false
	case index && constO:
		return s.index(&s.byObject, objectKey).list(uint64(p.id[2])), false
	case constP:
		return s.byPredicate.list(uint64(p.id[1])), false
	}
	return nil, true
}

// scan appends to into, in ascending order, the positions in [lo, hi)
// whose triples match p, reading what candidates picks for index, and
// returns it. Caller holds s.mu, or the store is closed and prepared for p.
func (s *Store) scan(p *idPattern, lo, hi int32, index bool, into []int32) []int32 {
	list, all := s.candidates(p, index)
	if all {
		for i := lo; i < hi; i++ {
			if p.matches(s.triples.at(i)) {
				into = append(into, i)
			}
		}
		return into
	}
	if len(list) > 0 && list[0] < lo {
		k, _ := slices.BinarySearch(list, lo)
		list = list[k:]
	}
	if len(list) > 0 && list[len(list)-1] >= hi {
		k, _ := slices.BinarySearch(list, hi)
		list = list[:k]
	}
	if p.keyed(index) {
		return append(into, list...)
	}
	into = slices.Grow(into, len(list))
	for _, i := range list {
		if p.matches(s.triples.at(i)) {
			into = append(into, i)
		}
	}
	return into
}

// keyed reports whether every triple on the list candidates picks for p
// matches p: p repeats no variable and its constants are exactly the list's
// key, the predicate alone without index.
func (p *idPattern) keyed(index bool) bool {
	var consts uint8
	for k := 0; k < 3; k++ {
		if p.sameAs[k] >= 0 || !p.isVar[k] && p.id[k] == rdf.NoTerm {
			return false
		}
		if !p.isVar[k] {
			consts |= 1 << k
		}
	}
	if !index {
		return consts == 0b010
	}
	return consts != 0 && consts != 0b101 && consts != 0b111
}

func subjectKey(t rdf.IDTriple) uint64 { return uint64(t.S) }
func objectKey(t rdf.IDTriple) uint64  { return uint64(t.O) }

// index returns the on-demand index *ps, on the first probe of its shape
// after indexing every current triple under key. Caller holds s.mu.
func (s *Store) index(ps **postings, key func(rdf.IDTriple) uint64) *postings {
	if *ps == nil {
		n := s.triples.len()
		*ps = newPostings(&s.runs, int(n))
		for i := int32(0); i < n; i++ {
			(*ps).add(key(s.triples.at(i)), i)
		}
		s.ledger.Charge(resource.Store, int64(n)*bytesPerPosting)
		s.perTriple += bytesPerPosting
	}
	return *ps
}

// MatchNow returns a snapshot of all current matches of the pattern, in
// insertion order.
func (s *Store) MatchNow(pattern rdf.Triple) []rdf.Triple {
	p := s.compilePattern(pattern)
	var buf [64]int32 // most calls (a path step, DESCRIBE) match a few
	s.mu.Lock()
	pos := s.scan(&p, 0, s.triples.len(), true, buf[:0])
	triples := s.triples // its first len() entries never change
	s.mu.Unlock()
	if len(pos) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(pos))
	for k, i := range pos {
		out[k] = s.dict.DecodeTriple(triples.at(i))
	}
	return out
}

// waiter is what a blocking call registers so that its context's
// cancellation wakes it: WaitClosed for one call, a BGP for its lifetime.
// It registers once, on its first wait, not on every wake-up, and not at all
// when it never blocks.
type waiter struct{ stop func() bool }

// waitLocked blocks until the next broadcast: new triples, Close, or the
// cancellation of ctx. Caller holds s.mu.
func (s *Store) waitLocked(ctx context.Context, w *waiter) {
	if w.stop == nil {
		w.stop = context.AfterFunc(ctx, s.wake)
	}
	s.cond.Wait()
}

// done unregisters the waiter's cancellation hook, if it set one. A hook
// already started may broadcast after its call returned: a spurious wake-up,
// harmless, since every waiter re-checks its condition.
func (w *waiter) done() {
	if w.stop != nil {
		w.stop()
	}
}

// Snapshot returns a copy of all triples currently in the store, in
// insertion order. Used by blocking operators and the centralized baseline.
func (s *Store) Snapshot() []rdf.Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rdf.Triple, s.triples.len())
	for i := range out {
		out[i] = s.dict.DecodeTriple(s.triples.at(int32(i)))
	}
	return out
}

// WaitClosed blocks until the store is closed or the context is cancelled.
// Blocking operators (ORDER BY, OPTIONAL, aggregation) use it to gate their
// final emission on traversal quiescence.
func (s *Store) WaitClosed(ctx context.Context) error {
	var w waiter
	defer w.done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.waitLocked(ctx, &w)
	}
	return nil
}
