package store

import (
	"math/bits"

	"ltqp/internal/rdf"
)

// tripleLog holds the store's triples, position i at index i, in pages that
// never move: appending fills the tail page and, once it is full, adds a new
// one to the directory, so no triple is ever copied and a position's triple
// stays at one address for the store's life. The first page holds 64
// triples, the next ones double (64, 128, 256, 512) up to pageSize, and every
// page after them holds pageSize: a small store allocates little, and a
// large one allocates at most one page more than it keeps, where a growing
// slice copies every triple again at each growth.
//
// A reader copies the log under the store lock, as it would a slice header:
// the copy's directory holds the pages of its first n positions, whose
// triples never change, so it reads them without the lock while the store
// appends behind it (into the tail page past n, or to a directory the copy
// does not see).
type tripleLog struct {
	dir [][]rdf.IDTriple
	n   int32
}

const (
	// firstShift: the first page holds 1<<firstShift triples.
	firstShift = 6
	// pageShift: a full page holds pageSize triples (12 KiB).
	pageShift = 10
	pageSize  = 1 << pageShift
	// smallPages is the number of pages below pageSize, which together hold
	// the first pageSize positions.
	smallPages = pageShift - firstShift + 1
	// dirStart is the directory's first capacity: the small pages and the
	// first full one, so the directory of a store below 2*pageSize triples is
	// one allocation.
	dirStart = smallPages + 1
)

func (l *tripleLog) len() int32 { return l.n }

// locate maps position i to its page in the directory and its offset there:
// a full page's by shift and mask, a small page's by the power of two it
// starts at.
func locate(i int32) (page, off int32) {
	if i >= pageSize {
		return i>>pageShift + smallPages - 1, i & (pageSize - 1)
	}
	k := int32(bits.Len32(uint32(i) >> firstShift))
	return k, i & (1<<(firstShift+max(k, 1)-1) - 1)
}

// at returns the triple at position i < l.len().
func (l *tripleLog) at(i int32) rdf.IDTriple {
	p, off := locate(i)
	return l.dir[p][off]
}

// append adds t at position l.len(), first adding a page when the position
// starts one: as large as everything before it while that is below
// pageSize.
func (l *tripleLog) append(t rdf.IDTriple) {
	p, off := locate(l.n)
	if off == 0 {
		if l.dir == nil {
			l.dir = make([][]rdf.IDTriple, 0, dirStart)
		}
		l.dir = append(l.dir, make([]rdf.IDTriple, min(max(l.n, 1<<firstShift), pageSize)))
	}
	l.dir[p][off] = t
	l.n++
}
