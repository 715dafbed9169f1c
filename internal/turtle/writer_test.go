package turtle

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ltqp/internal/rdf"
)

func TestWriteGrouping(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	triples := []rdf.Triple{
		{S: ex("s"), P: rdf.NewIRI(rdf.RDFType), O: ex("T")},
		{S: ex("s"), P: ex("p"), O: rdf.NewLiteral("v1")},
		{S: ex("s"), P: ex("p"), O: rdf.NewLiteral("v2")},
		{S: ex("other"), P: ex("q"), O: rdf.Integer(5)},
	}
	out := Write(triples, WriteOptions{Prefixes: map[string]string{"ex": "http://example.org/"}})
	if !strings.Contains(out, "ex:s a ex:T") {
		t.Errorf("rdf:type should render as 'a':\n%s", out)
	}
	if !strings.Contains(out, `ex:p "v1", "v2"`) {
		t.Errorf("object list should be comma-grouped:\n%s", out)
	}
	if !strings.Contains(out, "@prefix ex: <http://example.org/>.") {
		t.Errorf("used prefix should be declared:\n%s", out)
	}
	if strings.Contains(out, "@prefix foaf") {
		t.Errorf("unused prefixes must not be declared:\n%s", out)
	}
}

func TestWriteRelativeIRIs(t *testing.T) {
	base := "https://pod.example/alice/"
	triples := []rdf.Triple{
		{S: rdf.NewIRI(base), P: rdf.NewIRI(rdf.LDPContains), O: rdf.NewIRI(base + "posts/")},
	}
	out := Write(triples, WriteOptions{Base: base, Prefixes: map[string]string{"ldp": rdf.NSLDP}})
	if !strings.Contains(out, "<> ldp:contains <posts/>.") {
		t.Errorf("relativization failed:\n%s", out)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	// Property: parsing the serialized form yields the same triple set.
	gen := func(v []reflect.Value, r *rand.Rand) {
		n := 1 + r.Intn(20)
		ts := make([]rdf.Triple, 0, n)
		terms := []rdf.Term{
			rdf.NewIRI("http://example.org/a"),
			rdf.NewIRI("http://example.org/b#frag"),
			rdf.NewLiteral("plain \"text\"\nline"),
			rdf.NewLangLiteral("hello", "en"),
			rdf.Integer(42),
			rdf.Double(2.5),
			rdf.Boolean(true),
			rdf.NewTypedLiteral("2010-10-12", rdf.XSDDate),
			rdf.NewBlank("b1"),
		}
		preds := []rdf.Term{
			rdf.NewIRI("http://example.org/p"),
			rdf.NewIRI(rdf.RDFType),
			rdf.NewIRI(rdf.FOAFKnows),
		}
		subjects := []rdf.Term{
			rdf.NewIRI("http://example.org/s1"),
			rdf.NewIRI("http://example.org/s2"),
			rdf.NewBlank("bs"),
		}
		for i := 0; i < n; i++ {
			ts = append(ts, rdf.Triple{
				S: subjects[r.Intn(len(subjects))],
				P: preds[r.Intn(len(preds))],
				O: terms[r.Intn(len(terms))],
			})
		}
		v[0] = reflect.ValueOf(ts)
	}
	f := func(ts []rdf.Triple) bool {
		out := Write(ts, WriteOptions{Prefixes: rdf.CommonPrefixes})
		parsed, err := Parse(out, Options{})
		if err != nil {
			t.Logf("parse error: %v\n%s", err, out)
			return false
		}
		return sameTripleSet(ts, parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Values: gen}); err != nil {
		t.Error(err)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	ts := []rdf.Triple{
		{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewLangLiteral("x", "en")},
		{S: rdf.NewBlank("b"), P: rdf.NewIRI("http://p"), O: rdf.Long(7)},
	}
	out := WriteNTriples(ts)
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("want 2 lines, got %d:\n%s", lines, out)
	}
	parsed, err := Parse(out, Options{})
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !sameTripleSet(ts, parsed) {
		t.Errorf("round trip mismatch:\n%v\n%v", ts, parsed)
	}
}

func TestWriteNQuads(t *testing.T) {
	qs := []rdf.Quad{
		rdf.NewQuad(rdf.NewIRI("http://a"), rdf.NewIRI("http://p"), rdf.NewLiteral("x"), rdf.NewIRI("http://g")),
		rdf.NewQuad(rdf.NewIRI("http://a"), rdf.NewIRI("http://p"), rdf.NewLiteral("y"), rdf.Term{}),
	}
	out := WriteNQuads(qs)
	want := "<http://a> <http://p> \"x\" <http://g> .\n<http://a> <http://p> \"y\" .\n"
	if out != want {
		t.Errorf("WriteNQuads = %q, want %q", out, want)
	}
}

func TestEscapeIRIInWriter(t *testing.T) {
	ts := []rdf.Triple{{
		S: rdf.NewIRI("http://example.org/with space"),
		P: rdf.NewIRI("http://p"),
		O: rdf.NewIRI("http://b"),
	}}
	out := Write(ts, WriteOptions{})
	if strings.Contains(out, "<http://example.org/with space>") {
		t.Errorf("space must be escaped:\n%s", out)
	}
	if !strings.Contains(out, "%20") {
		t.Errorf("expected %%20 escape:\n%s", out)
	}
}

func TestValidLocalPart(t *testing.T) {
	if !validLocalPart("abc-d_e.f") {
		t.Error("simple local part should be valid")
	}
	if validLocalPart("a/b") || validLocalPart(".a") || validLocalPart("a.") {
		t.Error("slashes and edge dots are not valid unescaped local parts")
	}
	if !validLocalPart("") {
		t.Error("empty local part is valid (prefix:)")
	}
}

func sameTripleSet(a, b []rdf.Triple) bool {
	key := func(ts []rdf.Triple) []string {
		ks := make([]string, 0, len(ts))
		seen := map[string]bool{}
		for _, t := range ts {
			k := t.String()
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
