package turtle

import (
	"strings"
	"testing"

	"ltqp/internal/rdf"
)

func mustParse(t *testing.T, input string, opts Options) []rdf.Triple {
	t.Helper()
	ts, err := agreeWithReference(t, input, opts)
	if err != nil {
		t.Fatalf("Parse error: %v\ninput:\n%s", err, input)
	}
	return ts
}

func TestParseSimpleTriple(t *testing.T) {
	ts := mustParse(t, `<http://a> <http://p> <http://b> .`, Options{})
	if len(ts) != 1 {
		t.Fatalf("got %d triples", len(ts))
	}
	want := rdf.NewTriple(rdf.NewIRI("http://a"), rdf.NewIRI("http://p"), rdf.NewIRI("http://b"))
	if ts[0] != want {
		t.Errorf("triple = %v, want %v", ts[0], want)
	}
}

func TestParsePrefixes(t *testing.T) {
	input := `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
PREFIX ex: <http://example.org/>
ex:alice foaf:name "Alice" ; foaf:knows ex:bob .
`
	ts := mustParse(t, input, Options{})
	if len(ts) != 2 {
		t.Fatalf("got %d triples: %v", len(ts), ts)
	}
	if ts[0].P != rdf.NewIRI(rdf.FOAFName) || ts[0].O != rdf.NewLiteral("Alice") {
		t.Errorf("triple 0 = %v", ts[0])
	}
	if ts[1].O != rdf.NewIRI("http://example.org/bob") {
		t.Errorf("triple 1 = %v", ts[1])
	}
}

func TestParsePaperListing1(t *testing.T) {
	// The LDP container from the paper (Listing 1), with its typo fixed.
	input := `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> a ldp:Container, ldp:BasicContainer, ldp:Resource;
  ldp:contains <file.ttl>, <posts/>, <profile/>.
<file.ttl> a ldp:Resource.
<posts/> a ldp:Container, ldp:BasicContainer, ldp:Resource.
<profile/> a ldp:Container, ldp:BasicContainer, ldp:Resource.
`
	base := "https://pod.example/"
	ts := mustParse(t, input, Options{Base: base})
	g := rdf.NewGraph()
	g.AddAll(ts)
	if !g.IsA(rdf.NewIRI(base), rdf.LDPBasicContainer) {
		t.Error("root should be a BasicContainer")
	}
	contains := g.Objects(rdf.NewIRI(base), rdf.NewIRI(rdf.LDPContains))
	if len(contains) != 3 {
		t.Fatalf("contains = %v", contains)
	}
	if contains[1] != rdf.NewIRI(base+"posts/") {
		t.Errorf("relative IRI resolution: %v", contains[1])
	}
}

func TestParsePaperListing2WebID(t *testing.T) {
	input := `
PREFIX pim: <http://www.w3.org/ns/pim/space#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<#me> foaf:name "Zulma";
  pim:storage </>;
  solid:oidcIssuer <https://solidcommunity.net/>;
  solid:publicTypeIndex </publicTypeIndex.ttl>.
`
	base := "https://pod.example/profile/card"
	ts := mustParse(t, input, Options{Base: base})
	g := rdf.NewGraph()
	g.AddAll(ts)
	me := rdf.NewIRI(base + "#me")
	if got := g.FirstObject(me, rdf.NewIRI(rdf.PIMStorage)); got != rdf.NewIRI("https://pod.example/") {
		t.Errorf("storage = %v", got)
	}
	if got := g.FirstObject(me, rdf.NewIRI(rdf.SolidPublicTypeIndex)); got != rdf.NewIRI("https://pod.example/publicTypeIndex.ttl") {
		t.Errorf("typeindex = %v", got)
	}
	if got := g.FirstObject(me, rdf.NewIRI(rdf.FOAFName)); got != rdf.NewLiteral("Zulma") {
		t.Errorf("name = %v", got)
	}
}

func TestParsePaperListing3TypeIndex(t *testing.T) {
	input := `
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<> a solid:TypeIndex ;
   a solid:ListedDocument.
<#ab09fd> a solid:TypeRegistration;
  solid:forClass <http://example.org/Post>;
  solid:instance <./posts.ttl>.
<#bq1r5e> a solid:TypeRegistration;
  solid:forClass <http://example.org/Comment>;
  solid:instanceContainer <./comments/>.
`
	base := "https://pod.example/publicTypeIndex.ttl"
	ts := mustParse(t, input, Options{Base: base})
	g := rdf.NewGraph()
	g.AddAll(ts)
	regs := g.Subjects(rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.SolidTypeRegistration))
	if len(regs) != 2 {
		t.Fatalf("registrations = %v", regs)
	}
	post := rdf.NewIRI(base + "#ab09fd")
	if got := g.FirstObject(post, rdf.NewIRI(rdf.SolidInstance)); got != rdf.NewIRI("https://pod.example/posts.ttl") {
		t.Errorf("instance = %v", got)
	}
}

func TestParseLiterals(t *testing.T) {
	input := `
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <http://example.org/> .
ex:s ex:str "plain";
   ex:lang "hallo"@NL-be;
   ex:typed "42"^^xsd:long;
   ex:typed2 "x"^^<http://example.org/dt>;
   ex:int 42;
   ex:neg -7;
   ex:dec 3.14;
   ex:dbl 1.2e3;
   ex:t true;
   ex:f false;
   ex:esc "a\"b\nc\\dé";
   ex:long """multi
line "quoted" string""";
   ex:sq 'single';
   ex:empty "".
`
	ts := mustParse(t, input, Options{})
	byPred := map[string]rdf.Term{}
	for _, tt := range ts {
		byPred[tt.P.Value] = tt.O
	}
	ex := "http://example.org/"
	cases := map[string]rdf.Term{
		ex + "str":    rdf.NewLiteral("plain"),
		ex + "lang":   rdf.NewLangLiteral("hallo", "nl-be"),
		ex + "typed":  rdf.Long(42),
		ex + "typed2": rdf.NewTypedLiteral("x", "http://example.org/dt"),
		ex + "int":    rdf.NewTypedLiteral("42", rdf.XSDInteger),
		ex + "neg":    rdf.NewTypedLiteral("-7", rdf.XSDInteger),
		ex + "dec":    rdf.NewTypedLiteral("3.14", rdf.XSDDecimal),
		ex + "dbl":    rdf.NewTypedLiteral("1.2e3", rdf.XSDDouble),
		ex + "t":      rdf.Boolean(true),
		ex + "f":      rdf.Boolean(false),
		ex + "esc":    rdf.NewLiteral("a\"b\nc\\dé"),
		ex + "long":   rdf.NewLiteral("multi\nline \"quoted\" string"),
		ex + "sq":     rdf.NewLiteral("single"),
		ex + "empty":  rdf.NewLiteral(""),
	}
	for p, want := range cases {
		if got, ok := byPred[p]; !ok || got != want {
			t.Errorf("object of <%s> = %v, want %v", p, got, want)
		}
	}
}

func TestParseBlankNodes(t *testing.T) {
	input := `
@prefix ex: <http://example.org/> .
_:a ex:p _:b .
ex:s ex:q [ ex:r "nested"; ex:r2 [ ex:r3 ex:o ] ] .
[] ex:standalone "x" .
`
	ts := mustParse(t, input, Options{BlankPrefix: "d1."})
	if len(ts) != 6 {
		t.Fatalf("got %d triples: %v", len(ts), ts)
	}
	if ts[0].S != rdf.NewBlank("d1.a") || ts[0].O != rdf.NewBlank("d1.b") {
		t.Errorf("labelled blanks should carry prefix: %v", ts[0])
	}
	// All blank labels must carry the prefix.
	for _, tt := range ts {
		for _, term := range []rdf.Term{tt.S, tt.O} {
			if term.IsBlank() && !strings.HasPrefix(term.Value, "d1.") {
				t.Errorf("blank %v lacks prefix", term)
			}
		}
	}
}

func TestParseCollections(t *testing.T) {
	input := `
@prefix ex: <http://example.org/> .
ex:s ex:list (ex:a "b" 3) .
ex:s ex:emptyList () .
`
	ts := mustParse(t, input, Options{})
	g := rdf.NewGraph()
	g.AddAll(ts)
	head := g.FirstObject(rdf.NewIRI("http://example.org/s"), rdf.NewIRI("http://example.org/list"))
	if !head.IsBlank() {
		t.Fatalf("list head = %v", head)
	}
	var items []rdf.Term
	cur := head
	for cur != rdf.NewIRI(rdf.RDFNil) {
		items = append(items, g.FirstObject(cur, rdf.NewIRI(rdf.RDFFirst)))
		cur = g.FirstObject(cur, rdf.NewIRI(rdf.RDFRest))
		if cur.IsZero() {
			t.Fatal("broken rdf:rest chain")
		}
	}
	if len(items) != 3 || items[0] != rdf.NewIRI("http://example.org/a") ||
		items[1] != rdf.NewLiteral("b") || items[2] != rdf.NewTypedLiteral("3", rdf.XSDInteger) {
		t.Errorf("items = %v", items)
	}
	empty := g.FirstObject(rdf.NewIRI("http://example.org/s"), rdf.NewIRI("http://example.org/emptyList"))
	if empty != rdf.NewIRI(rdf.RDFNil) {
		t.Errorf("empty list = %v, want rdf:nil", empty)
	}
}

func TestParseComments(t *testing.T) {
	input := `
# leading comment
<http://a> <http://p> <http://b> . # trailing comment
# only a comment line
<http://a> <http://p> "with # not a comment" .
`
	ts := mustParse(t, input, Options{})
	if len(ts) != 2 {
		t.Fatalf("got %d triples", len(ts))
	}
	if ts[1].O != rdf.NewLiteral("with # not a comment") {
		t.Errorf("hash inside string was treated as comment: %v", ts[1].O)
	}
}

func TestParseBaseDirective(t *testing.T) {
	input := `
@base <https://pod.example/dir/> .
<doc> <#p> <../other> .
BASE <https://pod2.example/>
<x> <p> <y> .
`
	ts := mustParse(t, input, Options{})
	if ts[0].S != rdf.NewIRI("https://pod.example/dir/doc") {
		t.Errorf("subject = %v", ts[0].S)
	}
	if ts[0].O != rdf.NewIRI("https://pod.example/other") {
		t.Errorf("object = %v", ts[0].O)
	}
	if ts[1].S != rdf.NewIRI("https://pod2.example/x") {
		t.Errorf("after BASE redefine, subject = %v", ts[1].S)
	}
}

func TestParsePNLocalEscapes(t *testing.T) {
	input := `
@prefix ex: <http://example.org/> .
ex:with\-dash ex:p ex:dotted.name .
`
	ts := mustParse(t, input, Options{})
	if ts[0].S != rdf.NewIRI("http://example.org/with-dash") {
		t.Errorf("escaped local = %v", ts[0].S)
	}
	if ts[0].O != rdf.NewIRI("http://example.org/dotted.name") {
		t.Errorf("dotted local = %v", ts[0].O)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"unterminated iri", `<http://a <http://p> <http://b> .`},
		{"missing dot", `<http://a> <http://p> <http://b>`},
		{"undeclared prefix", `ex:a ex:p ex:b .`},
		{"unterminated string", `<http://a> <http://p> "abc .`},
		{"bad escape", `<http://a> <http://p> "a\qb" .`},
		{"unknown directive", `@foo <http://x> .`},
		{"bad number", `<http://a> <http://p> +. .`},
		{"unterminated collection", `<http://a> <http://p> (<http://b> .`},
		{"whitespace in iri", "<http://a b> <http://p> <http://c> ."},
		{"newline in iri", "<http://a\nb> <http://p> <http://c> ."},
		{"tab in iri", "<http://a\tb> <http://p> <http://c> ."},
		{"NUL in iri", "<http://a\x00b> <http://p> <http://c> ."},
		{"control character in iri", "<http://a\x1fb> <http://p> <http://c> ."},
		{"'<' in iri", "<http://a<b> <http://p> <http://c> ."},
		{"'\"' in iri", `<http://a"b> <http://p> <http://c> .`},
		{"'{' in iri", "<http://a{b> <http://p> <http://c> ."},
		{"'}' in iri", "<http://a}b> <http://p> <http://c> ."},
		{"'|' in iri", "<http://a|b> <http://p> <http://c> ."},
		{"'^' in iri", "<http://a^b> <http://p> <http://c> ."},
		{"'`' in iri", "<http://a`b> <http://p> <http://c> ."},
		{"forbidden character after an escape", `<http://a\u00e9{b> <http://p> <http://c> .`},
		{"forbidden character in a prefix iri", "@prefix ex: <http://a|b/> . ex:s ex:p ex:o ."},
		{"forbidden character in a datatype iri", `<http://a> <http://p> "x"^^<http://d^t> .`},
		{"bad iri escape", `<http://a\nb> <http://p> <http://c> .`},
		{"truncated iri escape", `<http://a\u00`},
		{"eof in object", `<http://a> <http://p>`},
		{"empty lang", `<http://a> <http://p> "x"@ .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := agreeWithReference(t, c.input, Options{}); err == nil {
				t.Errorf("expected error for %q", c.input)
			} else if !strings.Contains(err.Error(), "turtle: line") {
				t.Errorf("error should carry position: %v", err)
			}
		})
	}
}

func TestParseIRIRefCharacters(t *testing.T) {
	// Everything the IRIREF production allows stays allowed, verbatim: the
	// printable ASCII outside the forbidden set, DEL, and any non-ASCII byte.
	for _, iri := range []string{
		"http://a/!$&'()*+,;=:@/?#[]~-._%41", "http://a/\x7f", "http://a/é/日本", "urn:x:y", "http://a/\\u00e9\\U0001F600",
	} {
		input := "<" + iri + "> <http://p> <" + iri + "> ."
		ts := mustParse(t, input, Options{})
		if want := strings.NewReplacer(`\u00e9`, "é", `\U0001F600`, "😀").Replace(iri); ts[0].S.Value != want || ts[0].O.Value != want {
			t.Errorf("IRI %q parsed as %q / %q", want, ts[0].S.Value, ts[0].O.Value)
		}
	}
}

func TestParseTrailingSemicolons(t *testing.T) {
	input := `<http://a> <http://p> <http://b>; ; .`
	ts := mustParse(t, input, Options{})
	if len(ts) != 1 {
		t.Errorf("got %d triples", len(ts))
	}
}

func TestParseUnicodeEscapesInIRI(t *testing.T) {
	ts := mustParse(t, `<http://ex.org/é> <http://p> <http://b> .`, Options{})
	if ts[0].S != rdf.NewIRI("http://ex.org/é") {
		t.Errorf("subject = %v", ts[0].S)
	}
}

func TestParseAKeywordOnlyAsPredicate(t *testing.T) {
	// 'a' must not be confused with a prefixed name starting with a.
	input := `
@prefix a: <http://example.org/a/> .
a:x a a:Class .
`
	ts := mustParse(t, input, Options{})
	if ts[0].P != rdf.NewIRI(rdf.RDFType) {
		t.Errorf("predicate = %v, want rdf:type", ts[0].P)
	}
	if ts[0].S != rdf.NewIRI("http://example.org/a/x") {
		t.Errorf("subject = %v", ts[0].S)
	}
}
