package rdf

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// FuzzDictRoundTrip pins the dictionary bijection for arbitrary valid
// terms: intern→decode must be the identity, and re-interning must return
// the same ID. Terms are built through the package constructors, so the
// fuzzer explores exactly the term space the parsers can produce (including
// the canonicalizations the constructors apply: lower-cased language tags,
// xsd:string folded to the empty datatype).
func FuzzDictRoundTrip(f *testing.F) {
	f.Add(uint8(0), "http://example.org/a", "", "")
	f.Add(uint8(1), "plain literal", "", "")
	f.Add(uint8(2), "1", "http://www.w3.org/2001/XMLSchema#integer", "")
	f.Add(uint8(2), "01", "http://www.w3.org/2001/XMLSchema#integer", "")
	f.Add(uint8(3), "two", "", "EN")
	f.Add(uint8(4), "b1", "", "")
	f.Add(uint8(5), "x", "", "")
	f.Add(uint8(2), "s", "http://www.w3.org/2001/XMLSchema#string", "")
	f.Add(uint8(1), "\x00\xff not utf8 \xf0", "", "")

	f.Fuzz(func(t *testing.T, kind uint8, value, datatype, lang string) {
		var term Term
		switch kind % 6 {
		case 0:
			term = NewIRI(value)
		case 1:
			term = NewLiteral(value)
		case 2:
			term = NewTypedLiteral(value, datatype)
		case 3:
			term = NewLangLiteral(value, lang)
		case 4:
			term = NewBlank(value)
		default:
			term = NewVar(value)
		}

		d := NewDict()
		id := d.Intern(term)
		if term.IsZero() {
			if id != NoTerm {
				t.Fatalf("Intern(zero term) = %d, want NoTerm", id)
			}
			return
		}
		if id == NoTerm {
			t.Fatalf("Intern(%s) = NoTerm for a non-zero term", term)
		}
		if got := d.Decode(id); got != term {
			t.Fatalf("Decode(Intern(%s)) = %s: round trip not identity", term, got)
		}
		if again := d.Intern(term); again != id {
			t.Fatalf("re-Intern(%s) = %d, want stable %d", term, again, id)
		}
		if canon := d.Canonical(term); canon != term {
			t.Fatalf("Canonical(%s) = %s", term, canon)
		}
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Fatalf("Lookup(%s) = (%d, %v), want (%d, true)", term, got, ok, id)
		}
	})
}

// FuzzDictAgainstMap runs a byte-coded sequence of operations on a Dict and
// on a map[Term]TermID that assigns IDs in first-intern order, and requires
// the two to agree on every Intern, InternBorrowed, Lookup, Decode and Size.
// Each operation takes three bytes (op, a, b):
//
//   - op 0: intern term(a, b), borrowed when a is odd;
//   - op 1: look term(a, b) up;
//   - op 2: intern 8a pod IRIs of family b; two of them at a = 255 (the
//     fourth seed) give the stripes about 64 terms each, past the 48 a
//     dictSlotsMin table holds, so nearly every stripe doubles;
//   - op 3: look up 8a IRIs that are never interned, so misses probe dense
//     stripes;
//   - op 4: intern every cut of the first a%41 bytes of "abcdeabcde..." into
//     Value, Datatype and Language, with Kind 1+b%4: up to 861 terms whose
//     bytes are the same, so every probe that meets a full slot compares
//     two of them.
//
// term(a, b) cuts a prefix of "abcde" into Value, Datatype and Language at
// points taken from a and b and gives it a Kind from a, the undefined kind
// included: the small space is full of terms that differ only in Kind or
// only in where their bytes split.
func FuzzDictAgainstMap(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 5, 0, 3, 5, 0, 4, 5, 1, 1, 5})
	f.Add([]byte{0, 9, 21, 0, 17, 45, 0, 25, 5, 1, 9, 45, 1, 17, 21})
	f.Add([]byte{2, 40, 0, 3, 40, 0, 2, 120, 1, 3, 255, 1, 0, 1, 5, 1, 2, 5})
	f.Add([]byte{2, 255, 3, 0, 3, 4, 3, 255, 3, 2, 255, 4, 1, 3, 4}) // grows the stripes
	f.Add([]byte{4, 40, 1, 4, 40, 0, 4, 12, 2, 1, 9, 45, 3, 100, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDict()
		ref := map[Term]TermID{}
		var scratch []byte
		intern := func(term Term, borrowed bool) {
			want, ok := ref[term]
			if !ok && !term.IsZero() {
				want = TermID(len(ref) + 1)
				ref[term] = want
			}
			var got TermID
			if borrowed {
				// Hand the dictionary views of a buffer that is overwritten
				// before the next call.
				scratch = append(scratch[:0], term.Value+term.Datatype+term.Language...)
				view := func(lo, hi int) string { return unsafe.String(unsafe.SliceData(scratch[lo:]), hi-lo) }
				v, dt := len(term.Value), len(term.Value)+len(term.Datatype)
				got = d.InternBorrowed(Term{Kind: term.Kind, Value: view(0, v), Datatype: view(v, dt), Language: view(dt, len(scratch))})
				clear(scratch)
			} else {
				got = d.Intern(term)
			}
			if got != want {
				t.Fatalf("Intern(%#v) = %d, want %d", term, got, want)
			}
		}
		lookup := func(term Term) {
			want, ok := ref[term]
			if term.IsZero() {
				ok = true
			}
			if got, gotOK := d.Lookup(term); got != want || gotOK != ok {
				t.Fatalf("Lookup(%#v) = (%d, %v), want (%d, %v)", term, got, gotOK, want, ok)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := int(ops[i+1]), int(ops[i+2])
			switch ops[i] % 5 {
			case 0, 1:
				s := "abcde"[:b%6]
				cut1 := (a >> 3) % (len(s) + 1)
				cut2 := cut1 + (b>>3)%(len(s)-cut1+1)
				term := Term{Kind: TermKind(a % 5), Value: s[:cut1], Datatype: s[cut1:cut2], Language: s[cut2:]}
				if ops[i]%5 == 0 {
					intern(term, a%2 == 1)
				} else {
					lookup(term)
				}
			case 2:
				for k := 0; k < 8*a; k++ {
					intern(NewIRI(fmt.Sprintf("https://pod%d.example/f%d/%d", k%7, b, k)), k%2 == 0)
				}
			case 3:
				for k := 0; k < 8*a; k++ {
					lookup(NewIRI(fmt.Sprintf("https://absent.example/f%d/%d", b, k)))
				}
			case 4:
				s := strings.Repeat("abcde", 9)[:a%41]
				for cut1 := 0; cut1 <= len(s); cut1++ {
					for cut2 := cut1; cut2 <= len(s); cut2++ {
						intern(Term{Kind: TermKind(1 + b%4), Value: s[:cut1], Datatype: s[cut1:cut2], Language: s[cut2:]}, cut2%2 == 0)
					}
				}
			}
		}
		if d.Size() != len(ref) {
			t.Fatalf("Size = %d, want %d", d.Size(), len(ref))
		}
		for term, id := range ref {
			if got := d.Decode(id); got != term {
				t.Fatalf("Decode(%d) = %#v, want %#v", id, got, term)
			}
			lookup(term)
		}
	})
}
