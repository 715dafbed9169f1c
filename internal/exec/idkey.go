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
