// Package baseline provides the comparison systems used by the paper's
// positioning (§1): a *centralized oracle* that assumes all pod data has
// been accumulated into one local store beforehand (the trust-requiring
// index approach of systems like ESPRESSO), against which the traversal
// engine's no-prior-index execution is compared; and helpers to run
// queries directly over a closed store.
package baseline

import (
	"context"
	"fmt"

	"ltqp/internal/algebra"
	"ltqp/internal/exec"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/solid"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// CentralizedStore ingests all documents of all pods into a single closed
// store — the "accumulated index" a centralized system would maintain. The
// returned store is ready for querying; building it is the (large) upfront
// cost the traversal engine avoids.
//
// Blank node labels are scoped to their document, as dereferencing scopes
// them: a label means something only inside the document that uses it, and
// every pod's likes are _:like1, _:like2, …, so merging equal labels across
// documents joins one person's like to another's post.
func CentralizedStore(pods []*solid.Pod) *store.Store {
	st := store.New()
	doc := 0
	for _, p := range pods {
		for path, d := range p.Materialize() {
			doc++
			ts := d.Graph.Triples()
			scoped := make([]rdf.Triple, len(ts))
			for i, t := range ts {
				scoped[i] = rdf.NewTriple(scopeBlank(t.S, doc), t.P, scopeBlank(t.O, doc))
			}
			st.AddDocument(p.IRI(path), scoped)
		}
	}
	st.Close()
	return st
}

// scopeBlank prefixes a blank node's label with its document's number.
func scopeBlank(t rdf.Term, doc int) rdf.Term {
	if t.Kind == rdf.TermBlank {
		return rdf.NewBlank(fmt.Sprintf("d%d.%s", doc, t.Value))
	}
	return t
}

// RunQuery evaluates a SPARQL query over a closed store (no traversal) and
// returns all solutions. It runs exec.Reference, the materialising
// evaluator, never the batch pipeline: the differential harness compares
// the pipeline against this answer, so the oracle must not route through
// the code under test.
func RunQuery(ctx context.Context, st *store.Store, query string) ([]rdf.Binding, error) {
	q, err := sparql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	op, err := algebra.Translate(q)
	if err != nil {
		return nil, err
	}
	op = plan.New(q.MentionedIRIs()).Optimize(op)
	return exec.Reference(op, exec.NewEnv(st)), ctx.Err()
}
