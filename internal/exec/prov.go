package exec

import (
	"sort"
	"sync"

	"ltqp/internal/obs"
)

// Prov is the per-execution provenance sink. When attached to an Env,
// pattern operators annotate every solution with the documents its triples
// were first contributed by (see rdf prov pseudo-variables); joins
// then accumulate the union of both sides' documents, so every final result
// carries the exact set of documents whose triples produced it.
//
// A nil *Prov disables everything: the hot path pays one pointer comparison
// and zero allocations, the same opt-out pattern as the no-op spans.
type Prov struct {
	mu   sync.Mutex
	docs map[string]int // document IRI -> pattern matches it contributed
}

// NewProv returns an empty provenance sink.
func NewProv() *Prov {
	return &Prov{docs: map[string]int{}}
}

// add tallies one pattern match contributed by the document; the pattern
// operator carries the source IDs in the batch provenance column.
func (p *Prov) add(doc string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.docs[doc]++
	p.mu.Unlock()
}

// Contributions returns, per document IRI, how many pattern matches the
// document's triples fed into the pipeline, sorted by IRI.
func (p *Prov) Contributions() []obs.DocMatches {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]obs.DocMatches, 0, len(p.docs))
	for doc, n := range p.docs {
		out = append(out, obs.DocMatches{Document: doc, Matches: n})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Document < out[j].Document })
	return out
}
