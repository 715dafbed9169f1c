package turtle_test

import (
	"net/http/httptest"
	"testing"

	"ltqp/internal/faultinject"
	"ltqp/internal/solidbench"
	"ltqp/internal/turtle"
)

// corpusDoc is one document of the corpus with what its parse must give.
type corpusDoc struct {
	body    string
	opts    turtle.Options
	triples int // -1: any non-zero count
}

// TestCorpusEqualsReference is the scanner's equivalence gate over real
// documents: every document of the 12-person SolidBench fixture (the 1469
// the simulated environment serves) and the adversarial-pod corpus parses
// without error to exactly the reference parser's triples — same order,
// same blank labels under a BlankPrefix — through both sinks. The corpus
// runs twice, the passes interleaved (first document, last, second, second
// to last, ...), so the pooled parsers ParseIDs draws on go from each
// document to ones of other pods, sizes and prefixes.
func TestCorpusEqualsReference(t *testing.T) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	var docs []corpusDoc
	for _, pod := range solidbench.Generate(cfg).BuildPods() {
		for path, d := range pod.Materialize() {
			docs = append(docs, corpusDoc{pod.Turtle(d), turtle.Options{Base: pod.IRI(path), BlankPrefix: "d7."}, d.Graph.Len()})
		}
	}
	if len(docs) != 1469 {
		t.Fatalf("collected %d documents, want 1469", len(docs))
	}

	adv := faultinject.NewAdversary(1)
	adv.TrickleDelay = 0
	const origin = "http://adversary.invalid"
	for _, url := range []string{
		adv.BombRoot(origin), origin + faultinject.Prefix + "bomb/d1xd0-3", origin + faultinject.Prefix + "bomb/d3xd2xd1xd0-3-1-4",
		adv.LoopRoot(origin), origin + faultinject.Prefix + "loop/n7", adv.SpoofRoot(origin), adv.SlowRoot(origin), adv.BigRoot(origin),
	} {
		rec := httptest.NewRecorder()
		adv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		docs = append(docs, corpusDoc{rec.Body.String(), turtle.Options{Base: url, BlankPrefix: "d7."}, -1})
	}

	compared, triples := 0, 0
	for k := 0; k < 2*len(docs); k++ {
		d := docs[k/2]
		if k%2 == 1 {
			d = docs[len(docs)-1-k/2]
		}
		ts, err := turtle.AgreeWithReference(t, d.body, d.opts)
		if err != nil || d.triples < 0 && len(ts) == 0 || d.triples >= 0 && len(ts) != d.triples {
			t.Fatalf("%s: parsed %d triples (document has %d), error %v", d.opts.Base, len(ts), d.triples, err)
		}
		compared++
		triples += len(ts)
	}
	t.Logf("%d documents, %d triples compared", compared, triples)
}
