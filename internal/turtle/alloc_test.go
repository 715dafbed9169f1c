package turtle

import (
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

// TestDictNeverRetainsBody parses from a buffer, overwrites the buffer, and
// checks the dictionary took nothing of it: every term still decodes to what
// the reference parser reads, and no string the dictionary holds points into
// the buffer.
func TestDictNeverRetainsBody(t *testing.T) {
	opts := Options{Base: "http://example.org/dir/doc", BlankPrefix: "d3."}
	want, err := refParse(everyTermDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(everyTermDoc)
	opts.Dict = rdf.NewDict()
	ids, err := ParseIDs(body, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	got := opts.Dict.DecodeTriples(ids)
	if len(got) != len(want) {
		t.Fatalf("%d triples, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("triple %d decodes to %v after the buffer was overwritten, want %v", i, got[i], want[i])
		}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	hi := lo + uintptr(len(body))
	for id := rdf.TermID(1); int(id) <= opts.Dict.Size(); id++ {
		term := opts.Dict.Decode(id)
		for _, s := range []string{term.Value, term.Datatype, term.Language} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && p >= lo && p < hi {
				t.Errorf("term %d (%v): %q points into the parsed buffer", id, term, s)
			}
		}
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
// triple. The triple sink, and the ID sink against a dictionary that holds
// every term, allocate for the document (parser, memo, output slice), once
// per distinct prefixed name or scoped blank label and once per relative IRI
// they resolve, and for nothing else: under 0.5 a triple on a posts document,
// under 1 where every third triple introduces a blank label. Against an
// empty dictionary the ID sink adds the clones of the terms it interns. The
// byte-wise parser this one replaced stood at about 9 a triple.
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
		warm := benchOpts
		warm.Dict = rdf.NewDict()
		if got := perTriple(func() { ParseIDs(body, warm) }); got > c.warm {
			t.Errorf("%s, ID sink, every term a dictionary hit: %.2f allocations per triple, want at most %v", c.name, got, c.warm)
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
		}); got > 2.5 {
			t.Errorf("%s, ID sink, empty dictionary: %.2f allocations per triple, want at most 2.5", c.name, got)
		}
	}
}
