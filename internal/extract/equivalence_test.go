package extract_test

import (
	"fmt"
	"sort"
	"testing"

	"ltqp/internal/core"
	"ltqp/internal/extract"
	"ltqp/internal/linkqueue"
	"ltqp/internal/solidbench"
	"ltqp/internal/sparql"
)

// catalogShapes returns the distinct query shapes of every catalog and
// complex query of the dataset, plus the two degenerate ones.
func catalogShapes(t *testing.T, ds *solidbench.Dataset) []*extract.QueryShape {
	t.Helper()
	shapes := []*extract.QueryShape{nil, {}}
	seen := map[string]bool{}
	for _, q := range append(ds.Catalog(), ds.ComplexQueries()...) {
		parsed, err := sparql.ParseQuery(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		shape := core.ShapeOf(parsed)
		if key := shapeKey(shape); !seen[key] {
			seen[key] = true
			shapes = append(shapes, shape)
		}
	}
	return shapes
}

func shapeKey(s *extract.QueryShape) string {
	keys := func(m map[string]bool) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	return fmt.Sprint(keys(s.Predicates), keys(s.Classes))
}

// TestTableLinksEqualReference is the link table's equivalence gate: for
// every document of the 12-person SolidBench fixture and the shape of every
// catalog query, filtering the document's precomputed table yields exactly
// the links the graph-scanning reference extractors emit — same order, same
// labels, same count — through both entry points, and each link's dedup key
// is the queue's own normalization of its URL.
func TestTableLinksEqualReference(t *testing.T) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	ds := solidbench.Generate(cfg)
	shapes := catalogShapes(t, ds)
	docs, links := 0, 0
	for _, pod := range ds.BuildPods() {
		for path, d := range pod.Materialize() {
			docs++
			iri := pod.IRI(path)
			bare := extract.Document{IRI: iri, Graph: d.Graph}
			tabled := extract.Document{IRI: iri, Links: extract.Scan(d.Graph.Triples())}
			for _, shape := range shapes {
				want := extract.RefDefaultSolidSet(shape, bare)
				set := extract.DefaultSolidSet(shape)
				got := extract.AppendLinks(nil, set, tabled)
				if diff := diffLinks(got, want); diff != "" {
					t.Fatalf("%s, shape %v: table links differ from reference: %s", iri, shape, diff)
				}
				var viaExtract []extract.Link
				for _, ex := range set {
					viaExtract = append(viaExtract, ex.Extract(bare)...)
				}
				if diff := diffLinks(viaExtract, want); diff != "" {
					t.Fatalf("%s, shape %v: Extract on a bare document differs from reference: %s", iri, shape, diff)
				}
				for _, l := range got {
					if l.Key != linkqueue.Normalize(l.URL) {
						t.Fatalf("%s: link %q carries key %q, Normalize gives %q", iri, l.URL, l.Key, linkqueue.Normalize(l.URL))
					}
				}
				links += len(got)
			}
		}
	}
	if docs != 1469 || links == 0 {
		t.Fatalf("compared %d documents (want 1469), %d links", docs, links)
	}
	t.Logf("%d documents x %d shapes, %d links compared", docs, len(shapes), links)
}

// TestScanAllocatesPerDocument pins what a link table costs: the table and
// the one array behind its five sections, whatever the document — no
// per-section map, no per-link growth. It holds for every document of the
// fixture. A count above two is retried a few times: under the race detector
// the pool behind Scan drops items at random, and a call that finds it empty
// pays for a new builder.
func TestScanAllocatesPerDocument(t *testing.T) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	docs := 0
	for _, pod := range solidbench.Generate(cfg).BuildPods() {
		for path, d := range pod.Materialize() {
			docs++
			triples := d.Graph.Triples()
			scan := func() { extract.Scan(triples) }
			n := testing.AllocsPerRun(1, scan)
			for try := 0; n > 2 && try < 10; try++ {
				n = testing.AllocsPerRun(1, scan)
			}
			if n > 2 {
				t.Fatalf("%s: Scan of %d triples makes %v allocations, want at most 2", pod.IRI(path), len(triples), n)
			}
		}
	}
	if docs != 1469 {
		t.Fatalf("scanned %d documents, want 1469", docs)
	}
}

// diffLinks reports the first difference in URL, Reason or Extractor.
func diffLinks(got, want []extract.Link) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) {
			return fmt.Sprintf("link %d missing, want %+v (got %d, want %d)", i, want[i], len(got), len(want))
		}
		if i >= len(want) {
			return fmt.Sprintf("extra link %d: %+v (got %d, want %d)", i, got[i], len(got), len(want))
		}
		g, w := got[i], want[i]
		if g.URL != w.URL || g.Reason != w.Reason || g.Extractor != w.Extractor {
			return fmt.Sprintf("link %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}
