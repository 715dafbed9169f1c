package turtle

import (
	"strings"
	"testing"

	"ltqp/internal/rdf"
)

// benchDoc is a realistic pod document: a date-fragmented posts file.
var benchDoc = func() string {
	var sb strings.Builder
	sb.WriteString("@prefix snvoc: <https://example.org/vocabulary/> .\n")
	sb.WriteString("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("<#post")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(">")
		sb.WriteString(` a snvoc:Post;
  snvoc:id "137438953572"^^xsd:long;
  snvoc:hasCreator <https://example.org/pods/1/profile/card#me>;
  snvoc:creationDate "2010-10-12T08:30:00.000Z"^^xsd:dateTime;
  snvoc:content "About the world of music and photos from yesterday.";
  snvoc:browserUsed "Firefox";
  snvoc:locationIP "31.41.59.26";
  snvoc:isLocatedIn <https://example.org/dbpedia.org/resource/Belgium>.
`)
	}
	return sb.String()
}()

var benchOpts = Options{Base: "https://example.org/pods/1/posts/2010-10-12", BlankPrefix: "d1."}

// BenchmarkParseDocument measures one document through each sink: triples
// (what a caller without a dictionary gets), and IDs against a dictionary
// that already holds every term (a document seen before, or one sharing its
// vocabulary with the rest of its pod) and against an empty one.
func BenchmarkParseDocument(b *testing.B) {
	body := []byte(benchDoc)
	b.Run("triples", func(b *testing.B) {
		b.SetBytes(int64(len(benchDoc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(benchDoc, benchOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dict-warm", func(b *testing.B) {
		opts := benchOpts
		opts.Dict = rdf.NewDict()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseIDs(body, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dict-cold", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			opts := benchOpts
			opts.Dict = rdf.NewDict()
			b.StartTimer()
			if _, err := ParseIDs(body, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWriteDocument(b *testing.B) {
	triples, err := Parse(benchDoc, Options{Base: "https://example.org/doc"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Write(triples, WriteOptions{Prefixes: rdf.CommonPrefixes})
	}
}

func BenchmarkWriteNTriples(b *testing.B) {
	triples, err := Parse(benchDoc, Options{Base: "https://example.org/doc"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WriteNTriples(triples)
	}
}

// FuzzParse feeds arbitrary inputs to the Turtle parser: it must never
// panic, it must agree with the reference parser on error versus no error
// and on every triple, through both sinks, and anything it accepts must
// re-serialize and re-parse to the same triple count.
func FuzzParse(f *testing.F) {
	f.Add(`<http://a> <http://p> <http://b> .`)
	f.Add(`@prefix ex: <http://example.org/> . ex:a ex:p "lit"@en, 3.14, true .`)
	f.Add(`<s> <p> ( 1 2 3 ) .`)
	f.Add(`[] <p> [ <q> "x" ] .`)
	f.Add("<http://a> <http://p> \"\"\"long\nstring\"\"\" .")
	f.Add(`@base <http://b/> . <rel> <p> <#frag> .`)
	f.Fuzz(func(t *testing.T, input string) {
		triples, err := agreeWithReference(t, input, Options{Base: "http://fuzz.example/doc", BlankPrefix: "d1."})
		if err != nil {
			return // rejected input is fine
		}
		out := Write(triples, WriteOptions{})
		reparsed, err := Parse(out, Options{})
		if err != nil {
			t.Fatalf("accepted input did not round-trip: %v\ninput: %q\nout: %q", err, input, out)
		}
		// Round-trip preserves the triple *set* size (duplicates collapse).
		set := map[string]bool{}
		for _, tr := range triples {
			set[tr.String()] = true
		}
		reset := map[string]bool{}
		for _, tr := range reparsed {
			reset[tr.String()] = true
		}
		if len(set) != len(reset) {
			t.Fatalf("triple set changed: %d vs %d\ninput: %q", len(set), len(reset), input)
		}
	})
}
