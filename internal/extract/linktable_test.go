package extract

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"ltqp/internal/rdf"
)

// graphDoc is a bare document over the given triples.
func graphDoc(iri string, triples []rdf.Triple) Document {
	g := rdf.NewGraph()
	g.AddAll(triples)
	return Document{IRI: iri, Graph: g}
}

// plain drops the links' dedup keys, which the reference does not set.
func plain(links []Link) string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.URL + " " + l.Reason + " " + l.Extractor
	}
	return strings.Join(out, "\n")
}

// memoDocs are the documents the cMatch memo is checked on: one with more
// match keys than the memo holds, one whose rdf:type triples share their
// class's document, and a small one with repeated predicates.
func memoDocs() map[string][]rdf.Triple {
	iri := rdf.NewIRI
	docs := map[string][]rdf.Triple{}

	// 100 predicates, most followed by none of the shapes, each used on
	// subjects and objects that repeat across predicates: the prev walks
	// cross entries of memoized and of unmemoized keys.
	var many []rdf.Triple
	for i := 0; i < 100; i++ {
		p := iri(fmt.Sprintf("http://ex.org/vocab#p%d", i))
		s := iri(fmt.Sprintf("https://pod.example/s%d#it", i%7))
		o := iri(fmt.Sprintf("https://pod.example/o%d", i%11))
		many = append(many, rdf.NewTriple(s, p, o), rdf.NewTriple(o, p, s))
	}
	docs["many keys"] = many

	// Two classes in one vocabulary document: the rejected class comes
	// first, so the followed one's prev walk crosses it, and a third
	// rdf:type triple of the followed class must be deduplicated.
	typ := iri(rdf.RDFType)
	docs["classes"] = []rdf.Triple{
		rdf.NewTriple(iri("https://pod.example/a#c"), typ, iri("http://ex.org/vocab#Comment")),
		rdf.NewTriple(iri("https://pod.example/b#p"), typ, iri("http://ex.org/vocab#Post")),
		rdf.NewTriple(iri("https://pod.example/c#p"), typ, iri("http://ex.org/vocab#Post")),
		rdf.NewTriple(iri("https://pod.example/a#c"), iri("http://ex.org/vocab#p1"), iri("https://pod.example/b#p")),
		rdf.NewTriple(iri("https://pod.example/d#x"), typ, iri("http://ex.org/vocab#Comment")),
	}

	// A handful of predicates over many triples, as in a SolidBench post.
	var small []rdf.Triple
	small = append(small, rdf.NewTriple(iri("https://pod.example/post#m"), typ, iri("http://ex.org/vocab#Post")))
	for i := 0; i < 30; i++ {
		p := iri(fmt.Sprintf("http://ex.org/vocab#p%d", i%4))
		small = append(small, rdf.NewTriple(iri("https://pod.example/post#m"), p, iri(fmt.Sprintf("https://pod.example/x%d#y", i))))
	}
	docs["few keys"] = small
	return docs
}

// memoShapes covers a predicate-only shape (no classes), a class-only
// shape, one that follows rdf:type itself, and one mixing both.
func memoShapes() []*QueryShape {
	set := func(vals ...string) map[string]bool {
		m := map[string]bool{}
		for _, v := range vals {
			m[v] = true
		}
		return m
	}
	return []*QueryShape{
		{Predicates: set("http://ex.org/vocab#p1", "http://ex.org/vocab#p70", "http://ex.org/vocab#p99")},
		{Classes: set("http://ex.org/vocab#Post")},
		{Predicates: set(rdf.RDFType)},
		{Predicates: set("http://ex.org/vocab#p3", "http://ex.org/vocab#p64"), Classes: set("http://ex.org/vocab#Comment")},
		{},
		nil,
	}
}

// The memoized filter yields what the graph-scanning reference yields, on
// documents past the memo's capacity, with rejected entries inside the prev
// chains, and for shapes with and without classes.
func TestMatchMemoEqualsReference(t *testing.T) {
	for name, triples := range memoDocs() {
		bare := graphDoc("https://pod.example/doc", triples)
		tabled := Document{IRI: bare.IRI, Links: Scan(bare.Graph.Triples())}
		for _, shape := range memoShapes() {
			want := RefDefaultSolidSet(shape, bare)
			if got := AppendLinks(nil, DefaultSolidSet(shape), tabled); plain(got) != plain(want) {
				t.Errorf("%s, shape %v: table links\n%v\nreference\n%v", name, shape, got, want)
			}
			if got, want := (CMatch{Shape: shape}).Extract(bare), refCMatch(shape, bare); plain(got) != plain(want) {
				t.Errorf("%s, shape %v: Extract on the bare document\n%v\nreference\n%v", name, shape, got, want)
			}
		}
	}
	unmemoized := 0
	for _, e := range Scan(memoDocs()["many keys"]).secs[secMatch] {
		if e.k >= memoKeys {
			unmemoized++
		}
	}
	if unmemoized == 0 {
		t.Error("the many-keys document must have match entries past the memo")
	}
}

// cMatch asks the shape at most once per distinct match key of a document,
// however many entries share the key and however often prev walks pass
// them; only entries past the memo's first memoKeys keys ask for
// themselves.
func TestMatchAsksShapeOncePerKey(t *testing.T) {
	asks := map[tableLink]int{}
	askHook = func(t *LinkTable, e *tableLink) {
		if e.k < memoKeys {
			asks[t.all[e.k]]++
		}
	}
	defer func() { askHook = nil }()
	for name, doc := range memoDocs() {
		table := Scan(doc)
		for _, shape := range memoShapes() {
			if shape == nil {
				continue
			}
			clear(asks)
			table.appendSection(nil, table.secs[secMatch], shape)
			for k, n := range asks {
				if n > 1 {
					t.Errorf("%s, shape %v: key %v asked %d times", name, shape, k, n)
				}
			}
			if name == "few keys" && len(asks) > 5 {
				t.Errorf("few keys, shape %v: %d keys asked, the document has 5", shape, len(asks))
			}
		}
	}
}

// Filtering a table into a caller-owned buffer costs nothing, and the memo
// number fits in tableLink's padding.
func TestAppendLinksTableAllocatesNothing(t *testing.T) {
	if size := unsafe.Sizeof(tableLink{}); size != 48 {
		t.Errorf("tableLink is %d bytes, want 48", size)
	}
	triples := memoDocs()["few keys"]
	doc := Document{IRI: "https://pod.example/post", Links: Scan(triples)}
	set := DefaultSolidSet(memoShapes()[3])
	dst := make([]Link, 0, 64)
	if n := testing.AllocsPerRun(100, func() { dst = AppendLinks(dst[:0], set, doc) }); n != 0 {
		t.Errorf("AppendLinks into a buffer: %v allocations, want 0", n)
	}
	if len(dst) == 0 {
		t.Error("the shape must follow some links")
	}
}

// benchDoc is a SolidBench-sized post document: 19 posts, each typed and
// linked to its creator.
func benchDoc() []rdf.Triple {
	var triples []rdf.Triple
	typ := rdf.NewIRI(rdf.RDFType)
	for i := 0; i < 19; i++ {
		s := rdf.NewIRI(fmt.Sprintf("https://pod.example/posts/2010-%02d#%d", i%3, i))
		p := rdf.NewIRI("http://www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/" + strings.Repeat("x", i%5) + "hasCreator")
		triples = append(triples, rdf.NewTriple(s, p, rdf.NewIRI("https://pod.example/profile/card#me")))
		triples = append(triples, rdf.NewTriple(s, typ, rdf.NewIRI("http://www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/Post")))
	}
	return triples
}

// BenchmarkAppendLinksTable filters a SolidBench-sized document's link table
// through the default extractor set: the per-document link work of a warm
// query.
func BenchmarkAppendLinksTable(b *testing.B) {
	doc := Document{IRI: "https://pod.example/posts/2010-01", Links: Scan(benchDoc())}
	set := DefaultSolidSet(&QueryShape{
		Predicates: map[string]bool{"http://www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/hasCreator": true},
		Classes:    map[string]bool{"http://www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/Post": true},
	})
	dst := make([]Link, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendLinks(dst[:0], set, doc)
	}
}

// BenchmarkScanIDs builds the link table of a SolidBench-sized document from
// its ID triples: the link work of a cold fetch, which a dereference pays
// once per document version.
func BenchmarkScanIDs(b *testing.B) {
	dict := rdf.NewDict()
	var ids []rdf.IDTriple
	for _, t := range benchDoc() {
		ids = append(ids, dict.InternTriple(t))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanIDs(dict, ids)
	}
}
