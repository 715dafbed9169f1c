package turtle

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"ltqp/internal/rdf"
)

// everyTermDoc spells terms every way the grammar allows: absolute, relative
// and escaped IRIs, prefixed names with and without escapes, labelled and
// anonymous blank nodes, a collection, plain, escaped, long, language-tagged
// and typed literals (datatype by prefixed name and by IRI), the numeric and
// boolean shorthands.
const everyTermDoc = `@prefix ex: <http://example.org/ns#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
<http://example.org/abs> ex:p <#frag>, <rel/path>, <../up>, <http://example.org/é> ;
  a ex:Class ;
  ex:with\-escape ex:dotted.name ;
  ex:plain "plain" ; ex:esc "a\"b\nc" ; ex:long """two
lines""" ;
  ex:lang "hallo"@NL-be, "hello"@en ;
  ex:typed "42"^^xsd:long, "x"^^<http://example.org/dt> ;
  ex:num 42, -3.14, 1.2e3 ; ex:bool true, false ;
  ex:blank _:b1, [ ex:inner "nested" ], ( ex:a "b" 3 ) .
_:b1 ex:p _:b.2 .
`

// podDoc is a pod document of n posts, each spelled with relative IRIs,
// prefixed names, a scoped blank label, a typed literal and an anonymous
// node — every expansion the parser writes to its arena — at the 60-90 bytes
// a triple of real pod documents.
func podDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("@prefix snvoc: <https://example.org/vocabulary/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<#post%d> a snvoc:Post ;\n  snvoc:hasCreator <profile/card#me> ;\n  snvoc:id%d \"%d\"^^xsd:long ;\n", i, i, 1000+i)
		fmt.Fprintf(&sb, "  snvoc:content \"Post %d: %s\" ;\n", i, strings.Repeat("about the music and photos of yesterday, ", 5))
		fmt.Fprintf(&sb, "  snvoc:likedBy _:like%d ;\n  snvoc:seenIn [ snvoc:name \"place %d\" ] .\n", i, i)
	}
	return sb.String()
}

// parseWithArena runs ParseIDs on a pooled parser whose scratch arena is
// arena, so that a test knows where the expansions were written. It puts such
// a parser in the pool and tries again, with a fresh dictionary, whenever the
// pool handed ParseIDs another one (under the race detector Put drops items
// at random).
func parseWithArena(t *testing.T, body []byte, opts Options, arena []byte) (*rdf.Dict, []rdf.IDTriple) {
	t.Helper()
	for try := 0; try < 100; try++ {
		parserPool.Put(&parser{prefixes: map[string]string{}, names: map[string]string{}, scratch: arena[:0]})
		opts.Dict = rdf.NewDict()
		ids, err := ParseIDs(body, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := parserPool.Get().(*parser)
		if unsafe.SliceData(p.scratch) == unsafe.SliceData(arena) {
			return opts.Dict, ids
		}
	}
	t.Fatal("the pool never handed ParseIDs the prepared parser")
	return nil, nil
}

// TestDictNeverRetainsBody parses from a buffer through a parser with a known
// arena, overwrites both, and checks the dictionary took nothing of either:
// every term still decodes to what the reference parser reads, and no string
// the dictionary holds points into the buffer or the arena. The document
// holds more distinct term bytes than one 16 KiB chunk of the dictionary's
// own arena, so its copies straddle a chunk boundary.
func TestDictNeverRetainsBody(t *testing.T) {
	doc := everyTermDoc + podDoc(200)
	opts := Options{Base: "http://example.org/dir/doc", BlankPrefix: "d3."}
	want, err := refParse(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(doc)
	arena := make([]byte, 0, 1<<20) // the whole document's expansions fit
	dict, ids := parseWithArena(t, body, opts, arena)
	for _, b := range [][]byte{body, arena[:cap(arena)]} {
		for i := range b {
			b[i] = 'X'
		}
	}
	got := dict.DecodeTriples(ids)
	if len(got) != len(want) {
		t.Fatalf("%d triples, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("triple %d decodes to %v after buffer and arena were overwritten, want %v", i, got[i], want[i])
		}
	}
	termBytes := 0
	for id := rdf.TermID(1); int(id) <= dict.Size(); id++ {
		term := dict.Decode(id)
		for _, s := range []string{term.Value, term.Datatype, term.Language} {
			termBytes += len(s)
			p := unsafe.StringData(s)
			for name, b := range map[string][]byte{"parsed buffer": body, "parser arena": arena[:cap(arena)]} {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
				if s != "" && uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) < lo+uintptr(len(b)) {
					t.Errorf("term %d (%v): %q points into the %s", id, term, s, name)
				}
			}
		}
	}
	if termBytes <= 16<<10 {
		t.Errorf("the dictionary holds %d term bytes: the document no longer crosses an arena chunk", termBytes)
	}
}

// likesDoc is the other shape pod documents take: labelled blank nodes, no
// prefixed names but the datatype.
var likesDoc = func() string {
	var sb strings.Builder
	sb.WriteString("@base <https://example.org/pods/1/likes/2010-08-06>.\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#>.\n")
	for i := 0; i < 20; i++ {
		like := "_:like" + strconv.Itoa(i)
		sb.WriteString("<https://example.org/pods/1/profile/card#me> <https://example.org/vocabulary/likes> " + like + ".\n")
		sb.WriteString(like + " <https://example.org/vocabulary/hasPost> <https://example.org/pods/2/posts/2010-08-06#" + strconv.Itoa(1000+i) + ">;\n")
		sb.WriteString("    <https://example.org/vocabulary/creationDate> \"2010-08-06T19:00:35.000Z\"^^xsd:dateTime.\n")
	}
	return sb.String()
}()

// TestParseAllocations pins what a document costs in allocations, per
// triple. The triple sink allocates for the document (parser, memo, output
// slice), once per distinct prefixed name or scoped blank label and once per
// relative IRI it resolves, and for nothing else: under 0.5 a triple on a
// posts document, under 1 where every third triple introduces a blank label.
// The ID sink allocates per document, not per triple
// (TestParseIDsAllocatesPerDocument); against an empty dictionary it adds
// the dictionary's own growth. The byte-wise parser this one replaced stood
// at about 9 a triple.
func TestParseAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		doc  string
		warm float64
	}{{"posts document", benchDoc, 0.5}, {"likes document", likesDoc, 1}} {
		body := []byte(c.doc)
		triples, err := Parse(c.doc, benchOpts)
		if err != nil {
			t.Fatal(err)
		}
		perTriple := func(f func()) float64 {
			return testing.AllocsPerRun(20, f) / float64(len(triples))
		}
		if got := perTriple(func() { Parse(c.doc, benchOpts) }); got > c.warm {
			t.Errorf("%s, triple sink: %.2f allocations per triple, want at most %v", c.name, got, c.warm)
		}
		// AllocsPerRun calls f once to warm up and then 20 times.
		dicts := make([]*rdf.Dict, 21)
		for i := range dicts {
			dicts[i] = rdf.NewDict()
		}
		next := 0
		if got := perTriple(func() {
			cold := benchOpts
			cold.Dict = dicts[next]
			next++
			ParseIDs(body, cold)
		}); got > 1 {
			t.Errorf("%s, ID sink, empty dictionary: %.2f allocations per triple, want at most 1", c.name, got)
		}
	}
}

// minAllocs is the fewest allocations one call of f made over ten tries: what
// a call costs once the pools it draws on hold an item (under the race
// detector sync.Pool drops items at random).
func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for i := 0; i < 9; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestParseIDsAllocatesPerDocument pins the ID sink over a dictionary that
// holds every term at a constant per document whatever its length: the
// output slice, and the three of net/url parsing and printing the base once.
// Expansions go to the parser's arena and the memo maps keep their buckets.
func TestParseIDsAllocatesPerDocument(t *testing.T) {
	opts := Options{Base: "https://example.org/pods/1/posts/2010-10-12", BlankPrefix: "d1.", Dict: rdf.NewDict()}
	var per []float64
	for _, n := range []int{20, 80, 320} {
		body := []byte(podDoc(n))
		if _, err := ParseIDs(body, opts); err != nil {
			t.Fatal(err)
		}
		per = append(per, minAllocs(func() { ParseIDs(body, opts) }))
	}
	if per[0] > 4 || per[1] != per[0] || per[2] != per[0] {
		t.Errorf("allocations per document of 20, 80, 320 posts: %v, want one constant of at most 4", per)
	}
}
