package extract

import (
	"strings"
	"testing"

	"ltqp/internal/linkqueue"
	"ltqp/internal/rdf"
	"ltqp/internal/turtle"
)

// FuzzLinkExtraction feeds hostile Turtle through every extractor and checks
// the invariants traversal safety rests on: no panics, only fragment-free
// absolute http(s) link URLs, and URL normalization (the dedup key) stays
// idempotent — a document cannot mint links that dodge deduplication or
// smuggle non-dereferenceable schemes into the queue. It also runs the
// table-filtering extractors, over a table scanned from the triples and one
// scanned from the document parsed into IDs, against the graph-scanning
// reference ones: the same links in the same order under the same labels,
// whatever the document.
func FuzzLinkExtraction(f *testing.F) {
	f.Add("<http://pod/a> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <http://pod/b> .")
	f.Add(`<http://pod/> <http://www.w3.org/ns/ldp#contains> <http://pod/x>, <HTTP://POD:80/y> .`)
	f.Add(`<http://pod/card#me> <http://www.w3.org/ns/pim/space#storage> </root/> .`)
	f.Add(`<http://pod/i> a <http://www.w3.org/ns/solid/terms#TypeRegistration> ;
	 <http://www.w3.org/ns/solid/terms#forClass> <http://ex/C> ;
	 <http://www.w3.org/ns/solid/terms#instance> <javascript:alert(1)> .`)
	f.Add("<urn:x> <urn:p> \"lit\"@en .\n<mailto:a@b> <urn:q> <ftp://h/z> .")
	f.Add(`@prefix : <http://pod/#> . :a :b :c#frag .`)
	f.Add(strings.Repeat("<http://pod/s> <http://pod/p> <http://pod/o> .\n", 50))
	// The same URL under an irrelevant predicate first, a relevant one later,
	// and a registration for another class pointing at the same instance.
	f.Add(`<http://pod/a#x> <http://pod/q> <http://pod/b> . <http://pod/a#y> <http://pod/p> <http://pod/b#z> .
	<http://pod/i> a <http://www.w3.org/ns/solid/terms#TypeRegistration> ;
	 <http://www.w3.org/ns/solid/terms#forClass> <http://ex/D>, <http://ex/C> ;
	 <http://www.w3.org/ns/solid/terms#instance> <http://pod/b> .
	<http://pod/j> a <http://www.w3.org/ns/solid/terms#TypeRegistration> ;
	 <http://www.w3.org/ns/solid/terms#forClass> <http://ex/C> ;
	 <http://www.w3.org/ns/solid/terms#instanceContainer> <http://pod/b>, <HTTP://pod:80/c/> .`)

	shape := &QueryShape{
		Predicates: map[string]bool{"http://pod/p": true},
		Classes:    map[string]bool{"http://ex/C": true},
		IRIs:       map[string]bool{"http://pod/a": true},
	}
	extractors := append(DefaultSolidSet(shape), CAll{})

	f.Fuzz(func(t *testing.T, body string) {
		triples, err := turtle.Parse(body, turtle.Options{Base: "http://fuzz.example/doc"})
		if err != nil {
			return // unparseable bodies never reach extractors
		}
		g := rdf.NewGraph()
		g.AddAll(triples)
		doc := Document{IRI: "http://fuzz.example/doc", Graph: g}
		tabled := Document{IRI: doc.IRI, Links: Scan(triples)}
		dict := rdf.NewDict()
		ids, err := turtle.ParseIDs([]byte(body), turtle.Options{Base: doc.IRI, Dict: dict})
		if err != nil {
			t.Fatalf("parses as triples but not as IDs: %v", err)
		}
		fromIDs := Document{IRI: doc.IRI, Links: ScanIDs(dict, ids)}
		for _, sh := range []*QueryShape{shape, nil, {}} {
			want := RefDefaultSolidSet(sh, doc)
			var bare []Link
			for _, ex := range DefaultSolidSet(sh) {
				bare = append(bare, ex.Extract(doc)...)
			}
			for name, got := range map[string][]Link{"table": AppendLinks(nil, DefaultSolidSet(sh), tabled), "bare": bare,
				"ID table": AppendLinks(nil, DefaultSolidSet(sh), fromIDs)} {
				if len(got) != len(want) {
					t.Fatalf("%s path, shape %v: %d links, reference %d\n got %+v\nwant %+v", name, sh, len(got), len(want), got, want)
				}
				for i, l := range got {
					if w := want[i]; l.URL != w.URL || l.Reason != w.Reason || l.Extractor != w.Extractor {
						t.Fatalf("%s path, shape %v: link %d = %+v, reference %+v", name, sh, i, l, w)
					}
					if l.Key != linkqueue.Normalize(l.URL) {
						t.Fatalf("%s path: link %q carries key %q, want %q", name, l.URL, l.Key, linkqueue.Normalize(l.URL))
					}
				}
			}
		}
		for _, ex := range extractors {
			for _, l := range ex.Extract(doc) {
				if !strings.HasPrefix(l.URL, "http://") && !strings.HasPrefix(l.URL, "https://") {
					t.Fatalf("%s extracted non-http link %q", ex.Name(), l.URL)
				}
				if strings.Contains(l.URL, "#") {
					t.Fatalf("%s extracted link with fragment %q", ex.Name(), l.URL)
				}
				if l.URL == "" || l.Reason == "" || l.Extractor == "" {
					t.Fatalf("%s extracted incomplete link %+v", ex.Name(), l)
				}
				n := linkqueue.Normalize(l.URL)
				if linkqueue.Normalize(n) != n {
					t.Fatalf("normalization not idempotent for %q: %q -> %q",
						l.URL, n, linkqueue.Normalize(n))
				}
				if linkqueue.Origin(l.URL) == "invalid://" {
					t.Fatalf("%s extracted unparseable link %q", ex.Name(), l.URL)
				}
			}
		}
	})
}
