package ltqp

import (
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
// into scoring links discovered in that document.
func relevantTriples(triples []rdf.Triple, shape *extract.QueryShape) int {
	if shape == nil {
		return 0
	}
	n := 0
	for _, t := range triples {
		if shape.Predicates[t.P.Value] {
			n++
			continue
		}
		if t.P.Value == rdf.RDFType && t.O.Kind == rdf.TermIRI && shape.Classes[t.O.Value] {
			n++
		}
	}
	return n
}
