package turtle_test

import (
	"net/http/httptest"
	"testing"

	"ltqp/internal/faultinject"
	"ltqp/internal/solidbench"
	"ltqp/internal/turtle"
)

// TestCorpusEqualsReference is the scanner's equivalence gate over real
// documents: every document of the 12-person SolidBench fixture (the 1469
// the simulated environment serves) and the adversarial-pod corpus parses
// without error to exactly the reference parser's triples — same order,
// same blank labels under a BlankPrefix — through both sinks.
func TestCorpusEqualsReference(t *testing.T) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	docs, triples := 0, 0
	for _, pod := range solidbench.Generate(cfg).BuildPods() {
		for path, d := range pod.Materialize() {
			ts, err := turtle.AgreeWithReference(t, pod.Turtle(d), turtle.Options{Base: pod.IRI(path), BlankPrefix: "d7."})
			if err != nil {
				t.Fatalf("%s: %v", pod.IRI(path), err)
			}
			if len(ts) != d.Graph.Len() {
				t.Fatalf("%s: parsed %d triples, document has %d", pod.IRI(path), len(ts), d.Graph.Len())
			}
			docs++
			triples += len(ts)
		}
	}
	if docs != 1469 {
		t.Fatalf("compared %d documents, want 1469", docs)
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
		ts, err := turtle.AgreeWithReference(t, rec.Body.String(), turtle.Options{Base: url, BlankPrefix: "d7."})
		if err != nil || len(ts) == 0 {
			t.Fatalf("%s: %d triples, error %v", url, len(ts), err)
		}
		docs++
		triples += len(ts)
	}
	t.Logf("%d documents, %d triples compared", docs, triples)
}
