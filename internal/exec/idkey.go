package exec

import (
	"ltqp/internal/rdf"
)

// idKey is a compact comparable identity key for a row over a fixed
// variable list, built from dictionary term IDs instead of rendered lexical
// forms. Up to two variables pack into the uint64 (zero-allocation — the
// overwhelmingly common join arity); wider rows append 4 bytes per extra
// variable to rest. Unbound variables key as NoTerm (ID 0), matching the
// "UNDEF" sentinel semantics exactly.
type idKey struct {
	packed uint64
	rest   string
}

// idKeyOf builds the identity key of a row from its IDs in key-variable
// order. Two rows receive the same key if and only if they hold equal IDs
// (or are both unbound) at every position: the dictionary gives equal terms
// equal IDs and distinct terms distinct IDs, and the fixed 4-bytes-per-ID
// layout of rest cannot collide across positions.
func idKeyOf(ids []rdf.TermID) idKey {
	var out idKey
	n := len(ids)
	if n > 0 {
		out.packed = uint64(ids[0]) << 32
	}
	if n > 1 {
		out.packed |= uint64(ids[1])
	}
	if n > 2 {
		buf := make([]byte, 0, (n-2)*4)
		for _, id := range ids[2:] {
			buf = append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
		}
		out.rest = string(buf)
	}
	return out
}

// idTable numbers the distinct ID keys of one width in first-seen order,
// for join, DISTINCT and GROUP BY to file rows in slices by slot. A key of
// up to two IDs (the usual arity) hashes as its packed uint64.
type idTable struct {
	narrow map[uint64]int32
	wide   map[idKey]int32
	n      int32
}

// slot returns the slot of the key ids, adding it when absent; fresh
// reports whether it was. A key already present costs one map lookup.
func (t *idTable) slot(ids []rdf.TermID) (s int32, fresh bool) {
	k, ok := idKeyOf(ids), false
	if len(ids) <= 2 {
		if s, ok = t.narrow[k.packed]; !ok {
			if t.narrow == nil {
				t.narrow = map[uint64]int32{}
			}
			t.narrow[k.packed] = t.n
		}
	} else if s, ok = t.wide[k]; !ok {
		if t.wide == nil {
			t.wide = map[idKey]int32{}
		}
		t.wide[k] = t.n
	}
	if ok {
		return s, false
	}
	t.n++
	return t.n - 1, true
}

// reset empties the table, keeping its maps' capacity.
func (t *idTable) reset() {
	clear(t.narrow)
	clear(t.wide)
	t.n = 0
}

// keySet is DISTINCT's seen-set of keys of up to two IDs, packed as idKeyOf
// packs them: open addressing over a power-of-two table of the keys
// themselves, eight bytes a slot at a load of at most 3/4, where idTable's
// map spends about seventeen a slot on a slot number DISTINCT never reads.
// Key 0 (every value unbound) marks an empty slot, so it is a flag.
type keySet struct {
	slots []uint64
	n     int
	zero  bool
}

// add adds k and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	if k == 0 {
		fresh := !s.zero
		s.zero = true
		return fresh
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint64, max(16, 2*len(old))), 0
		for _, k := range old {
			if k != 0 {
				s.add(k)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	h := k * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			s.n++
			return true
		case k:
			return false
		}
	}
}
