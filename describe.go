package ltqp

import (
	"context"
	"errors"

	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// Describe runs a DESCRIBE query: the WHERE pattern (if any) is evaluated
// by traversal, and each described resource is rendered as its concise
// bounded description (CBD) over all traversed data — the resource's
// outgoing triples, expanded recursively through blank nodes.
func (e *Engine) Describe(ctx context.Context, query string, seeds ...string) ([]rdf.Triple, error) {
	x, err := e.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		return nil, err
	}
	if x.query.Form != sparql.FormDescribe {
		x.Close()
		return nil, errors.New("ltqp: Describe requires a DESCRIBE query")
	}

	// Collect the described resources: constants plus variable bindings
	// from the WHERE evaluation.
	resources := map[rdf.Term]bool{}
	var vars []string
	for _, d := range x.query.Describe {
		if d.IsVar() {
			vars = append(vars, d.Value)
		} else {
			resources[d] = true
		}
	}
	describeAll := len(x.query.Describe) == 0 // DESCRIBE *
	for b := range x.Results {
		if describeAll {
			for _, v := range b.Vars() {
				resources[b[v]] = true
			}
			continue
		}
		for _, v := range vars {
			if t, ok := b.Get(v); ok {
				resources[t] = true
			}
		}
	}
	if err := x.Err(); err != nil {
		return nil, err
	}
	// The descriptions are computed over the *complete* traversed store.
	if err := x.store.WaitClosed(ctx); err != nil {
		return nil, err
	}
	defer x.Close()

	// CBD over the traversed store.
	out := rdf.NewGraph()
	seenBlank := map[rdf.Term]bool{}
	var expand func(t rdf.Term)
	expand = func(t rdf.Term) {
		for _, tr := range x.store.MatchNow(rdf.NewTriple(t, rdf.NewVar("p"), rdf.NewVar("o"))) {
			if out.Add(tr) && tr.O.IsBlank() && !seenBlank[tr.O] {
				seenBlank[tr.O] = true
				expand(tr.O)
			}
		}
	}
	for r := range resources {
		if r.IsIRI() || r.IsBlank() {
			expand(r)
		}
	}
	return out.Triples(), nil
}
