package store

import (
	"context"

	"ltqp/internal/rdf"
)

// Batch iteration: the vectorized executor pulls matches out of the store as
// slabs of dictionary-encoded ID triples instead of one decoded rdf.Triple
// per call. NextBatch preserves the live-iterator contract of Next — stream
// everything currently known, then block until new triples arrive or the
// store closes — but amortizes the store lock and the channel send over up
// to a full batch, and never decodes: terms stay integers until the
// pipeline's projection boundary.

// scanLockedIdx advances the cursor to the next match and additionally
// returns the triple's index into the store's triples/sources arrays, so
// batch scans can attach provenance without looking the triple up. Caller holds
// store.mu.
func (it *Iterator) scanLockedIdx() (rdf.IDTriple, int32, bool) {
	return it.scanIn(it.candidatesLocked())
}

// candidatesLocked returns the pattern's current candidate list (nil for a
// full scan). It aliases the index and is valid until store.mu is released.
func (it *Iterator) candidatesLocked() []int32 {
	if it.scan {
		return nil
	}
	return it.store.candidates(&it.pattern)
}

// scanIn is scanLockedIdx over a candidate list the caller already looked
// up under the same lock hold, so a batch pays one index probe, not one per
// match.
func (it *Iterator) scanIn(list []int32) (rdf.IDTriple, int32, bool) {
	s := it.store
	if it.scan {
		for it.next < len(s.triples) {
			i := int32(it.next)
			t := s.triples[i]
			it.next++
			if it.pattern.matches(t) {
				return t, i, true
			}
		}
		return rdf.IDTriple{}, 0, false
	}
	for it.next < len(list) {
		i := list[it.next]
		t := s.triples[i]
		it.next++
		if it.pattern.matches(t) {
			return t, i, true
		}
	}
	return rdf.IDTriple{}, 0, false
}

// NextBatch fills ids (and, when srcs is non-nil, the parallel srcs slice
// with each triple's source-document ID) with as many matches as are
// available without blocking, up to len(ids). When no match is available it
// blocks like Next until new triples arrive, the store closes, the iterator
// is closed, or the context is cancelled. It returns the number of matches
// written and ok=false only when the stream has ended.
func (it *Iterator) NextBatch(ctx context.Context, ids []rdf.IDTriple, srcs []rdf.TermID) (int, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	s := it.store
	var w waiter
	defer w.done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if it.isClosed() || ctx.Err() != nil {
			return 0, false
		}
		n := 0
		list := it.candidatesLocked()
		for n < len(ids) {
			t, idx, ok := it.scanIn(list)
			if !ok {
				break
			}
			ids[n] = t
			if srcs != nil {
				srcs[n] = s.sourceLocked(idx)
			}
			n++
		}
		if n > 0 {
			return n, true
		}
		if s.closed {
			return 0, false
		}
		s.waitLocked(ctx, &w)
	}
}
