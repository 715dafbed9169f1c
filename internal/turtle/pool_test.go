package turtle

import (
	"fmt"
	"sync"
	"testing"

	"ltqp/internal/rdf"
)

// TestPooledParserForgetsDocument parses documents back to back through
// ParseIDs, so one pooled parser goes from each to the next, and holds every
// document to the reference parsed on its own: no prefix, base, memoized
// expansion, blank-label scope, blank-node counter or last subject and
// predicate of one document shows in another.
func TestPooledParserForgetsDocument(t *testing.T) {
	docs := []struct {
		body string
		opts Options
	}{
		{"@prefix ex: <http://a.example/ns#> .\n@base <http://a.example/dir/> .\nex:s ex:p <rel>, _:x, [ ex:q ex:r ] .\n",
			Options{Base: "http://a.example/doc", BlankPrefix: "a."}},
		// ex: is the previous document's: undeclared here.
		{"<http://b.example/s> ex:p <rel> .\n", Options{Base: "http://b.example/doc", BlankPrefix: "b."}},
		// The first document's lexemes under this one's prefix, base and scope.
		{"@prefix ex: <http://b.example/ns#> .\nex:s ex:p <rel>, _:x, [ ex:q ex:r ] .\n",
			Options{Base: "http://b.example/doc", BlankPrefix: "b."}},
		// Again, into the other dictionary: the subject and predicate the
		// previous document ended on are spelled the same and have other IDs.
		{"@prefix ex: <http://b.example/ns#> .\nex:s ex:p <rel>, _:x, [ ex:q ex:r ] .\n",
			Options{Base: "http://b.example/doc", BlankPrefix: "b."}},
		{"_:x <http://c.example/p> _:x, [] .\n", Options{Base: "http://c.example/doc"}},
	}
	dicts := []*rdf.Dict{rdf.NewDict(), rdf.NewDict()}
	dicts[1].Intern(rdf.NewIRI("urn:offset")) // so equal terms get different IDs in the two
	for round := 0; round < 20; round++ {
		for i, d := range docs {
			want, wantErr := refParse(d.body, d.opts)
			opts := d.opts
			opts.Dict = dicts[(round+i)%2]
			ids, err := ParseIDs([]byte(d.body), opts)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("round %d, document %d: error %v, reference error %v", round, i, err, wantErr)
			}
			got := opts.Dict.DecodeTriples(ids)
			if len(got) != len(want) {
				t.Fatalf("round %d, document %d: %d triples, reference %d", round, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("round %d, document %d: triple %d = %v, reference %v", round, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestParseIDsConcurrent runs ParseIDs from several goroutines into one
// dictionary, each overwriting its body and a pooled parser's arena once the
// call returned, and decodes every ID only when all are done: each must still
// give the reference's term.
func TestParseIDsConcurrent(t *testing.T) {
	const workers, perWorker = 6, 25
	dict := rdf.NewDict()
	type parsed struct {
		ids  []rdf.IDTriple
		want []rdf.Triple
	}
	results := make([][]parsed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				doc := everyTermDoc + podDoc(3+i%5) + fmt.Sprintf("@prefix w: <http://w%d.example/ns/> .\nw:s%d w:p <rel%d>, _:o%d .\n", w, i, i, i)
				opts := Options{Base: fmt.Sprintf("http://pod%d.example/dir/doc%d", w, i), BlankPrefix: fmt.Sprintf("d%d.%d.", w, i)}
				want, err := refParse(doc, opts)
				if err != nil {
					t.Error(err)
					return
				}
				body := []byte(doc)
				opts.Dict = dict
				ids, err := ParseIDs(body, opts)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range body {
					body[j] = 'X'
				}
				p := parserPool.Get().(*parser)
				arena := p.scratch[:cap(p.scratch)]
				for j := range arena {
					arena[j] = 'X'
				}
				parserPool.Put(p)
				results[w] = append(results[w], parsed{ids, want})
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range results {
		for i, r := range rs {
			got := dict.DecodeTriples(r.ids)
			if len(got) != len(r.want) {
				t.Fatalf("worker %d, document %d: %d triples, reference %d", w, i, len(got), len(r.want))
			}
			for j := range got {
				if got[j] != r.want[j] {
					t.Fatalf("worker %d, document %d: triple %d decodes to %v, reference %v", w, i, j, got[j], r.want[j])
				}
			}
		}
	}
}
