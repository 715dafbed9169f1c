package rdf

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func TestDictInternDecodeRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewIRI("http://example.org/b"),
		NewLiteral("plain"),
		NewTypedLiteral("1", XSDInteger),
		NewTypedLiteral("01", XSDInteger),
		NewLangLiteral("two", "EN"), // canonicalized to @en by the constructor
		NewBlank("b1"),
		NewVar("x"),
	}
	ids := make([]TermID, len(terms))
	for i, term := range terms {
		ids[i] = d.Intern(term)
		if ids[i] == NoTerm {
			t.Fatalf("Intern(%s) = NoTerm", term)
		}
		if got := d.Decode(ids[i]); got != term {
			t.Fatalf("Decode(Intern(%s)) = %s", term, got)
		}
	}
	// IDs are dense, first-intern ordered, and stable on re-intern.
	for i, term := range terms {
		if ids[i] != TermID(i+1) {
			t.Errorf("id of term %d = %d, want %d", i, ids[i], i+1)
		}
		if again := d.Intern(term); again != ids[i] {
			t.Errorf("re-Intern(%s) = %d, want %d", term, again, ids[i])
		}
	}
	if d.Size() != len(terms) {
		t.Errorf("Size = %d, want %d", d.Size(), len(terms))
	}
}

func TestDictDistinctTermsDistinctIDs(t *testing.T) {
	d := NewDict()
	// Same lexical value, different kinds/datatypes/languages: all distinct.
	terms := []Term{
		NewIRI("x"),
		NewLiteral("x"),
		NewBlank("x"),
		NewVar("x"),
		NewTypedLiteral("x", XSDInteger),
		NewLangLiteral("x", "en"),
		NewLangLiteral("x", "de"),
	}
	seen := map[TermID]Term{}
	for _, term := range terms {
		id := d.Intern(term)
		if prev, dup := seen[id]; dup {
			t.Fatalf("terms %s and %s share id %d", prev, term, id)
		}
		seen[id] = term
	}
}

func TestDictZeroAndOutOfRange(t *testing.T) {
	d := NewDict()
	if id := d.Intern(Term{}); id != NoTerm {
		t.Errorf("Intern(zero) = %d, want NoTerm", id)
	}
	if got := d.Decode(NoTerm); !got.IsZero() {
		t.Errorf("Decode(NoTerm) = %s, want zero term", got)
	}
	if got := d.Decode(TermID(999)); !got.IsZero() {
		t.Errorf("Decode(out of range) = %s, want zero term", got)
	}
	if id, ok := d.Lookup(NewIRI("http://never")); ok || id != NoTerm {
		t.Errorf("Lookup(missing) = (%d, %v), want (NoTerm, false)", id, ok)
	}
	if id, ok := d.Lookup(Term{}); !ok || id != NoTerm {
		t.Errorf("Lookup(zero) = (%d, %v), want (NoTerm, true)", id, ok)
	}
}

func TestDictCanonicalSharesStorage(t *testing.T) {
	d := NewDict()
	first := NewIRI("http://example.org/shared")
	d.Intern(first)
	// A second, equal term built from different backing bytes.
	second := NewIRI("http://example.org/" + string([]byte("shared")))
	canon := d.Canonical(second)
	if canon != first {
		t.Fatalf("Canonical = %s, want %s", canon, first)
	}
	if got := d.Canonical(Term{}); !got.IsZero() {
		t.Errorf("Canonical(zero) = %s", got)
	}
}

func TestDictTripleRoundTrip(t *testing.T) {
	d := NewDict()
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	it := d.InternTriple(tr)
	if got := d.DecodeTriple(it); got != tr {
		t.Fatalf("DecodeTriple = %s, want %s", got, tr)
	}
	if got, ok := d.LookupTriple(tr); !ok || got != it {
		t.Fatalf("LookupTriple = (%v, %v)", got, ok)
	}
	missing := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("absent"))
	if _, ok := d.LookupTriple(missing); ok {
		t.Fatal("LookupTriple reported a never-interned triple present")
	}
}

func TestDictGrowsAcrossChunks(t *testing.T) {
	d := NewDict()
	n := dictChunkSize*2 + 37
	for i := 0; i < n; i++ {
		term := NewIRI(fmt.Sprintf("http://example.org/%d", i))
		if id := d.Intern(term); id != TermID(i+1) {
			t.Fatalf("id %d for term %d", id, i)
		}
	}
	for i := 0; i < n; i++ {
		want := NewIRI(fmt.Sprintf("http://example.org/%d", i))
		if got := d.Decode(TermID(i + 1)); got != want {
			t.Fatalf("Decode(%d) = %s, want %s", i+1, got, want)
		}
	}
	if d.Size() != n {
		t.Errorf("Size = %d, want %d", d.Size(), n)
	}
}

// TestInternBorrowedCopiesIntoArena interns terms cut from one buffer into an
// empty dictionary, overwrites the buffer, and decodes: every term must read
// as before, the long ones (over a quarter of an arena chunk, given their own
// allocation) included. Copying into the arena leaves a miss allocating only
// when a table grows: at most 0.05 times a term, amortised over the
// dictionary's first 50 000 terms.
func TestInternBorrowedCopiesIntoArena(t *testing.T) {
	const n = 50000
	var buf []byte
	type span struct {
		kind            TermKind
		value, dt, lang [2]int
	}
	spans := make([]span, n)
	add := func(s string) [2]int {
		buf = append(buf, s...)
		return [2]int{len(buf) - len(s), len(buf)}
	}
	for i := range spans {
		sp := span{kind: TermIRI, value: add(fmt.Sprintf("https://pod%d.example/posts/%d#it", i%12, i))}
		switch i % 4 {
		case 1:
			sp = span{kind: TermLiteral, value: add(fmt.Sprint(i)), dt: add(XSDInteger)}
		case 2:
			sp = span{kind: TermLiteral, value: add(fmt.Sprintf("hallo %d", i)), lang: add("nl")}
		}
		if i%2500 == 3 {
			sp.value = add(strings.Repeat("long ", arenaChunkSize/4/5+1) + fmt.Sprint(i))
		}
		spans[i] = sp
	}
	view := func(r [2]int) string { return unsafe.String(unsafe.SliceData(buf[r[0]:]), r[1]-r[0]) }
	terms := make([]Term, n)
	want := make([]Term, n)
	for i, sp := range spans {
		terms[i] = Term{Kind: sp.kind, Value: view(sp.value), Datatype: view(sp.dt), Language: view(sp.lang)}
		want[i] = Term{Kind: sp.kind, Value: strings.Clone(terms[i].Value), Datatype: strings.Clone(terms[i].Datatype), Language: strings.Clone(terms[i].Language)}
	}
	var d *Dict
	allocs := testing.AllocsPerRun(1, func() {
		d = NewDict()
		for _, term := range terms {
			d.InternBorrowed(term)
		}
	})
	if perTerm := allocs / n; perTerm > 0.05 {
		t.Errorf("%.3f allocations per borrowed miss, want at most 0.05", perTerm)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	for i, w := range want {
		if got := d.Decode(TermID(i + 1)); got != w {
			t.Fatalf("term %d decodes to %v after its buffer was overwritten, want %v", i+1, got, w)
		}
	}
}

func TestPackID2(t *testing.T) {
	if PackID2(1, 2) == PackID2(2, 1) {
		t.Fatal("PackID2 is order-insensitive")
	}
	if PackID2(0, 1) == PackID2(1, 0) {
		t.Fatal("PackID2 collides on zero")
	}
}

func BenchmarkDictInternHit(b *testing.B) {
	d := NewDict()
	terms := make([]Term, 1000)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://example.org/term/%d", i))
		d.Intern(terms[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(terms[i%len(terms)])
	}
}

// BenchmarkDictInternFresh is the intern work of a fresh engine: a new
// dictionary takes 2 000 distinct pod IRIs as borrowed misses, then the same
// terms again as hits.
func BenchmarkDictInternFresh(b *testing.B) {
	terms := make([]Term, 2000)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("https://pod%d.example/posts/%d#it", i%12, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDict()
		for _, term := range terms {
			d.InternBorrowed(term)
		}
		for _, term := range terms {
			d.InternBorrowed(term)
		}
	}
}

func BenchmarkDictDecode(b *testing.B) {
	d := NewDict()
	for i := 0; i < 1000; i++ {
		d.Intern(NewIRI(fmt.Sprintf("http://example.org/term/%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Decode(TermID(i%1000+1)).Kind != TermIRI {
			b.Fatal("bad decode")
		}
	}
}
