package rdf

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// TermID is a dictionary-encoded term: a dense integer handle for one
// distinct Term. ID 0 is reserved for the undefined (zero) term, so a zero
// TermID unambiguously means "no term". IDs are assigned in first-intern
// order, are never reused, and stay stable for the lifetime of the Dict —
// two Terms are equal if and only if their IDs from the same Dict are equal.
type TermID uint32

// NoTerm is the TermID of the undefined term.
const NoTerm TermID = 0

// IDTriple is a dictionary-encoded triple: three TermIDs from the same
// Dict. It is a 12-byte comparable value, so it hashes and compares as a
// small fixed-size key instead of three lexical strings — the representation
// the store keeps on its hot ingest and match paths.
type IDTriple struct {
	S, P, O TermID
}

// SP packs subject and predicate into one uint64 composite key, used by the
// store's (s,p)-constant index.
func (t IDTriple) SP() uint64 { return uint64(t.S)<<32 | uint64(t.P) }

// PO packs predicate and object into one uint64 composite key, used by the
// store's (p,o)-constant index.
func (t IDTriple) PO() uint64 { return uint64(t.P)<<32 | uint64(t.O) }

// PackID2 packs two TermIDs into one uint64 composite key. Join operators
// use it to key hash buckets on up to two shared variables without
// rendering any lexical form.
func PackID2(a, b TermID) uint64 { return uint64(a)<<32 | uint64(b) }

const (
	// dictShards is the number of lock stripes of the intern table. Power of
	// two; 64 stripes keep contention negligible at the engine's default
	// dereference parallelism while costing ~3 KiB of mutexes.
	dictShards = 64

	// dictSlotsMin is the size of a stripe's slot table when its first term
	// arrives. A table doubles before more than 3/4 of its slots are full.
	// 64 slots (256 bytes) hold the ~32 terms a stripe gets from a fresh
	// engine's first couple of thousand, which started at 8 would take
	// three doublings to reach.
	dictSlotsMin = 64

	// dictChunkSize is the number of terms per decode-table chunk. Chunks
	// are append-only: once a slot is published it never moves, so readers
	// decode without taking any lock.
	dictChunkSize = 1024

	// arenaChunkSize is the size of a chunk of the term-byte arena. A string
	// longer than a quarter of it gets an allocation of its own, so a chunk
	// given up for a string that does not fit wastes at most that quarter.
	arenaChunkSize = 16 << 10
)

// Dict is a concurrent term dictionary: an engine-scoped bijection between
// Terms and dense TermIDs.
//
// Interning is lock-striped: the Term→ID index is split over dictShards
// stripes, each guarded by its own RWMutex, so concurrent interning from
// many dereference workers rarely contends, and the common re-intern (hit)
// path takes only a read lock. A stripe holds IDs and a probe compares the
// decoded term, so each term is stored once. Decoding is lock-free: the
// ID→Term table is a list of fixed-size append-only chunks published with
// atomic operations, so pattern scans and joins decode IDs with two atomic
// loads and an index.
//
// The dictionary is append-only and grows for the lifetime of its engine;
// it never forgets a term. That is the standard trade-off of dictionary
// encoding: bounded, shared string storage in exchange for integer
// comparisons everywhere downstream.
type Dict struct {
	shards [dictShards]dictShard

	// seed keys the term hash, so documents, which choose the terms, cannot
	// pile them onto one stripe or probe sequence.
	seed maphash.Seed

	// tableMu serializes ID allocation, decode-table appends and arena
	// writes.
	tableMu sync.Mutex
	// arena is the chunk the bytes of borrowed terms are copied into. A
	// chunk is only ever appended to, and is dropped, never reused, once
	// full: the strings viewing it are immutable.
	arena []byte
	// chunks is the atomically-published list of decode chunks.
	chunks atomic.Pointer[[]*dictChunk]
	// n is the number of published IDs; a reader that observes n >= id is
	// guaranteed (by the release/acquire pair on n) to see the fully
	// written decode slot for id.
	n atomic.Uint32
}

// dictShard is one stripe of the intern index: an open-addressing table of
// IDs, NoTerm marking an empty slot. It is nil until the stripe's first term
// and then a power of two long and at most 3/4 full, so every probe ends.
type dictShard struct {
	mu    sync.RWMutex
	slots []TermID
	shift uint8 // 64 - log2(len(slots)): a hash's high bits pick its first slot
	n     int
}

type dictChunk [dictChunkSize]Term

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{seed: maphash.MakeSeed()}
	empty := make([]*dictChunk, 0)
	d.chunks.Store(&empty)
	return d
}

// hash is the seeded hash of t; its low bits pick the stripe. Each string
// is hashed on its own, so terms whose bytes split differently over Value,
// Datatype and Language do not collide whatever the seed.
func (d *Dict) hash(t *Term) uint64 {
	h := maphash.String(d.seed, t.Value) ^ uint64(t.Kind)
	if t.Datatype != "" {
		h = h*0x9e3779b97f4a7c15 ^ maphash.String(d.seed, t.Datatype)
	}
	if t.Language != "" {
		h = h*0xc2b2ae3d27d4eb4f ^ maphash.String(d.seed, t.Language)
	}
	return h
}

// slot returns the index of the slot holding t's ID, or else of the empty
// slot that ends t's probe sequence. The triangular steps (1, 2, 3, ...)
// visit every slot of a power-of-two table. Caller holds sh.mu and the
// table is not nil.
func (sh *dictShard) slot(d *Dict, t *Term, h uint64) uint64 {
	mask, i := uint64(len(sh.slots)-1), h>>sh.shift
	for step := uint64(1); ; i, step = (i+step)&mask, step+1 {
		if id := sh.slots[i]; id == NoTerm || *d.at(id) == *t {
			return i
		}
	}
}

// find returns the ID of t, or NoTerm if the stripe does not hold it.
// Caller holds sh.mu.
func (sh *dictShard) find(d *Dict, t *Term, h uint64) TermID {
	if sh.slots == nil {
		return NoTerm
	}
	return sh.slots[sh.slot(d, t, h)]
}

// insert adds the ID of a term the stripe does not hold, doubling the table
// first if it would pass 3/4 full. Caller holds sh.mu for writing.
func (sh *dictShard) insert(d *Dict, t *Term, id TermID, h uint64) {
	if (sh.n+1)*4 > len(sh.slots)*3 {
		old := sh.slots
		sh.slots = make([]TermID, max(2*len(old), dictSlotsMin))
		sh.shift = uint8(64 - bits.TrailingZeros(uint(len(sh.slots))))
		for _, id := range old {
			if id != NoTerm {
				t := d.at(id)
				sh.slots[sh.slot(d, t, d.hash(t))] = id
			}
		}
	}
	sh.slots[sh.slot(d, t, h)] = id
	sh.n++
}

// Intern returns the ID of t, assigning a fresh one on first sight. The
// undefined term always interns to NoTerm. Intern is safe for concurrent
// use; equal terms receive equal IDs no matter which goroutine interned
// them first. The dictionary keeps t's strings.
func (d *Dict) Intern(t Term) TermID { return d.intern(t, false) }

// InternBorrowed is Intern for a term whose strings alias memory the caller
// will reuse (a pooled response body, a parser's scratch): a hit allocates
// nothing and a miss copies the strings into the dictionary's own arena, so
// the dictionary never pins or reads that memory later.
func (d *Dict) InternBorrowed(t Term) TermID { return d.intern(t, true) }

func (d *Dict) intern(t Term, borrowed bool) TermID {
	if t.Kind == TermUndef {
		return NoTerm
	}
	id, sh, h := d.lookup(&t)
	if id != NoTerm {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id := sh.find(d, &t, h); id != NoTerm {
		return id
	}
	id = d.appendTerm(t, borrowed)
	sh.insert(d, &t, id, h)
	return id
}

// appendTerm allocates the next ID and publishes t in the decode table, with
// a borrowed t's strings first copied into the arena.
func (d *Dict) appendTerm(t Term, borrowed bool) TermID {
	d.tableMu.Lock()
	defer d.tableMu.Unlock()
	if borrowed {
		t.Value, t.Datatype, t.Language = d.own(t.Value), d.own(t.Datatype), d.own(t.Language)
	}
	next := d.n.Load() // only this goroutine can advance it right now
	idx := int(next)   // 0-based slot of the new term; its ID is next+1
	chunks := *d.chunks.Load()
	if idx/dictChunkSize >= len(chunks) {
		grown := make([]*dictChunk, len(chunks)+1)
		copy(grown, chunks)
		grown[len(chunks)] = new(dictChunk)
		d.chunks.Store(&grown)
		chunks = grown
	}
	chunks[idx/dictChunkSize][idx%dictChunkSize] = t
	id := TermID(next + 1)
	d.n.Store(uint32(id)) // release: publishes the slot write above
	return id
}

// at returns the decode slot of a published ID.
func (d *Dict) at(id TermID) *Term {
	idx := int(id) - 1
	return &(*d.chunks.Load())[idx/dictChunkSize][idx%dictChunkSize]
}

// own returns a copy of s the dictionary owns: a view of the arena, or for
// a long string a clone. Caller holds tableMu.
func (d *Dict) own(s string) string {
	switch {
	case s == "":
		return ""
	case len(s) > arenaChunkSize/4:
		return strings.Clone(s)
	case len(d.arena)+len(s) > cap(d.arena):
		d.arena = make([]byte, 0, arenaChunkSize)
	}
	start := len(d.arena)
	d.arena = append(d.arena, s...)
	return unsafe.String(&d.arena[start], len(s))
}

// Lookup returns the ID of t without interning it. The second result
// reports whether t has ever been interned. The undefined term reports
// (NoTerm, true).
func (d *Dict) Lookup(t Term) (TermID, bool) {
	if t.Kind == TermUndef {
		return NoTerm, true
	}
	id, _, _ := d.lookup(&t)
	return id, id != NoTerm
}

// lookup returns the ID of t, or NoTerm, found under the read lock of t's
// stripe, together with the stripe and t's hash.
func (d *Dict) lookup(t *Term) (TermID, *dictShard, uint64) {
	h := d.hash(t)
	sh := &d.shards[h&(dictShards-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.find(d, t, h), sh, h
}

// Decode returns the term for an ID. NoTerm and out-of-range IDs decode to
// the undefined term. Decode is lock-free and safe concurrently with
// Intern.
func (d *Dict) Decode(id TermID) Term {
	if id == NoTerm || uint32(id) > d.n.Load() { // acquire: pairs with appendTerm
		return Term{}
	}
	return *d.at(id)
}

// Canonical interns t and returns the dictionary's copy of it. The
// canonical term is ==-equal to t but shares the dictionary's backing
// strings, so parsers that canonicalize as they emit collapse the thousands
// of repeated IRI/datatype strings of a document set down to one allocation
// each.
func (d *Dict) Canonical(t Term) Term {
	id := d.Intern(t)
	if id == NoTerm {
		return Term{}
	}
	return d.Decode(id)
}

// InternTriple interns all three positions of a ground triple.
func (d *Dict) InternTriple(t Triple) IDTriple {
	return IDTriple{S: d.Intern(t.S), P: d.Intern(t.P), O: d.Intern(t.O)}
}

// LookupTriple returns the IDTriple of t if every position has been
// interned; ok is false otherwise (in which case t cannot be present in any
// structure keyed by this dictionary).
func (d *Dict) LookupTriple(t Triple) (IDTriple, bool) {
	s, ok1 := d.Lookup(t.S)
	p, ok2 := d.Lookup(t.P)
	o, ok3 := d.Lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return IDTriple{}, false
	}
	return IDTriple{S: s, P: p, O: o}, true
}

// DecodeTriple decodes all three positions of an IDTriple.
func (d *Dict) DecodeTriple(t IDTriple) Triple {
	return Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)}
}

// DecodeTriples decodes ids into one exactly-sized slice holding the
// dictionary's own copies of the terms.
func (d *Dict) DecodeTriples(ids []IDTriple) []Triple {
	out := make([]Triple, len(ids))
	for i, t := range ids {
		out[i] = d.DecodeTriple(t)
	}
	return out
}

// Size returns the number of distinct terms interned so far.
func (d *Dict) Size() int { return int(d.n.Load()) }
