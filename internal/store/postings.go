package store

import "ltqp/internal/rdf"

// postings is one pattern index: for every key, the ascending list of
// positions (into Store.triples) of the triples carrying that key. All five
// of the store's indexes use it; TermID keys are widened to uint64 so the
// single-constant and the composite (s,p)/(p,o) indexes share one
// representation.
//
// The layout exists so that growing a posting list does not allocate per
// key, which append on a map[K][]int32 does (one fresh slice for every new
// key, and again at every doubling):
//
//   - idx maps a key to its one position in one (values >= 0), or to ^slot
//     in slab (values < 0): most composite keys only ever hold one
//     position, which costs four bytes and no slot;
//   - a second position promotes the key into a slot, which holds up to
//     inlinePostings positions in place, so a new key costs no allocation
//     beyond the amortized growth of idx, one and slab;
//   - a longer list moves, whole, into a run carved from an arena chunk the
//     store's indexes share, doubling when it fills. Abandoned runs stay in
//     their chunk (at most as much again as the live runs, by the
//     doubling), so allocations are per chunk, not per key.
//
// A list is always contiguous — in one, in the slot or in its run — and
// ascending, so reading it is reading a slice, and a reader finds the
// positions of any range [lo, hi) on it by binary search: it keeps its
// place as a position, which no move, promotion or late index build
// changes. The slice aliases one, the slab or the arena and is valid only
// while the store lock is held: add may move them.
type postings struct {
	idx   map[uint64]int32
	one   []int32
	slab  []posting
	arena *arena
}

// arena hands out runs from the tail of its current chunk; carved counts
// the positions of every run it has handed out.
type arena struct {
	chunk  []int32
	carved int
}

const (
	inlinePostings = 4
	// firstRun is the capacity of a list's first arena run.
	firstRun = 4 * inlinePostings
	// arenaChunk is the arena's allocation unit, in positions (16 KiB).
	arenaChunk = 4096
)

type posting struct {
	n      int32
	inline [inlinePostings]int32
	run    []int32 // holds the whole list once n > inlinePostings
}

func newPostings(a *arena, sizeHint int) *postings {
	return &postings{idx: make(map[uint64]int32, sizeHint), one: make([]int32, 0, sizeHint), arena: a}
}

// add appends position i to key's list.
func (ps *postings) add(key uint64, i int32) {
	v, ok := ps.idx[key]
	switch {
	case !ok:
		ps.idx[key] = int32(len(ps.one))
		ps.one = append(ps.one, i)
		return
	case v >= 0:
		ps.idx[key] = ^int32(len(ps.slab))
		ps.slab = append(ps.slab, posting{n: 2, inline: [inlinePostings]int32{ps.one[v], i}})
		return
	}
	p := &ps.slab[^v]
	if p.n < inlinePostings {
		p.inline[p.n] = i
	} else {
		if len(p.run) == cap(p.run) { // full, or the first spill (nil run)
			ps.grow(p)
		}
		p.run = append(p.run, i)
	}
	p.n++
}

// grow moves p's list into a run of twice the capacity, carved from the
// arena.
func (ps *postings) grow(p *posting) {
	old := p.run
	if old == nil {
		old = p.inline[:]
	}
	size := 2 * cap(p.run)
	if size < firstRun {
		size = firstRun
	}
	a := ps.arena
	if len(a.chunk)+size > cap(a.chunk) {
		n := arenaChunk
		if size > n {
			n = size
		}
		a.chunk = make([]int32, 0, n)
	}
	a.carved += size
	at := len(a.chunk)
	a.chunk = a.chunk[:at+size]
	// The three-index slice caps the run, so its appends never reach into
	// the next run carved from the same chunk.
	p.run = append(a.chunk[at:at:at+size], old...)
}

// list returns key's positions in insertion (ascending) order; nil when the
// key is absent. Valid only while the store lock is held.
func (ps *postings) list(key uint64) []int32 {
	v, ok := ps.idx[key]
	if !ok {
		return nil
	}
	if v >= 0 {
		return ps.one[v : v+1 : v+1] // capped: an append cannot write into one
	}
	p := &ps.slab[^v]
	if p.run != nil {
		return p.run
	}
	return p.inline[:p.n]
}

// positions finds a triple's position in Store.triples: the store's dedup
// set and the way into its provenance. It is an open-addressing table of
// position+1 (0: empty) hashed on (S,P,O); the key of a slot is the triple at
// that position, so the table holds four bytes per slot and no second copy of
// any triple. Every triple of the store is in it, and nothing else.
type positions struct{ slots []int32 }

func hashTriple(t rdf.IDTriple) uint64 {
	h := (t.SP() ^ uint64(t.O)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// find returns the position of t among triples, or the empty slot where its
// position belongs (reserve keeps one free).
func (ps *positions) find(triples []rdf.IDTriple, t rdf.IDTriple) (pos int32, slot int, ok bool) {
	mask := len(ps.slots) - 1
	for slot = int(hashTriple(t)) & mask; ; slot = (slot + 1) & mask {
		v := ps.slots[slot]
		if v == 0 {
			return 0, slot, false
		}
		if triples[v-1] == t {
			return v - 1, slot, true
		}
	}
}

// reserve makes room for extra more triples at a load of at most 3/4,
// re-placing the current ones in one pass when the table has to grow. Sizes
// are powers of two, from the store's first.
func (ps *positions) reserve(triples []rdf.IDTriple, extra int) {
	size := len(ps.slots)
	for 4*(len(triples)+extra) > 3*size {
		size *= 2
	}
	if size == len(ps.slots) {
		return
	}
	ps.slots = make([]int32, size)
	for i, t := range triples {
		_, slot, _ := ps.find(triples, t)
		ps.slots[slot] = int32(i) + 1
	}
}
