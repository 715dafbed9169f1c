package ltqp

import (
	"ltqp/internal/deref"
	"ltqp/internal/extract"
	"ltqp/internal/linkqueue"
	"ltqp/internal/rdf"
)

// relevanceOf turns a query shape into the guided queue's relevance model:
// the set of constant subject/object IRIs the query mentions. Links into
// documents the query names directly are the ones most likely to bind a
// pattern, so the guided discipline boosts them ahead of reachability-only
// discoveries.
func relevanceOf(shape *extract.QueryShape) *linkqueue.Relevance {
	if shape == nil {
		return nil
	}
	iris := make([]string, 0, len(shape.IRIs))
	for iri := range shape.IRIs {
		iris = append(iris, iri)
	}
	return linkqueue.NewRelevance(iris)
}

// relevantTriples counts how many of a document's triples could contribute
// to the query: their predicate is one of the query's constant predicates,
// or they type an entity into one of the query's classes. The ratio
// relevant/total is the productivity signal the guided queue feeds back
// into scoring links discovered in that document. The triples are read
// through the segment's dictionary, one term at a time.
func relevantTriples(seg *deref.Segment, shape *extract.QueryShape) int {
	if shape == nil {
		return 0
	}
	n := 0
	for _, t := range seg.Triples {
		p, o := seg.Dict.Decode(t.P), seg.Dict.Decode(t.O)
		if shape.Predicates[p.Value] || p.Value == rdf.RDFType && o.Kind == rdf.TermIRI && shape.Classes[o.Value] {
			n++
		}
	}
	return n
}
