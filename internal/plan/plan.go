// Package plan implements zero-knowledge query planning for link traversal
// query processing, after Hartig (ESWC 2011). Because LTQP has no prior
// statistics about the data it will discover, join orders are chosen purely
// from the syntactic shape of the query and the seed URLs:
//
//   - seed-directed: patterns mentioning a seed document are scheduled
//     first, since their matches arrive earliest during traversal;
//   - filtering: patterns with more constant positions are considered more
//     selective (subject constants strongest, then objects, then
//     predicates);
//   - dependency-respecting: each subsequent pattern must share a variable
//     with the already-planned prefix whenever possible, avoiding Cartesian
//     products;
//   - vocabulary-aware: rdf:type patterns with a constant class are
//     deprioritized — class extensions are large and unselective.
package plan

import (
	"sort"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
)

// Planner reorders join chains in a logical plan.
type Planner struct {
	// seedDocs holds the documents of the seed URLs for seed-directed
	// scoring.
	seedDocs map[string]bool
}

// New returns a planner aware of the given seed URLs.
func New(seeds []string) *Planner {
	docs := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		docs[stripFragment(s)] = true
	}
	return &Planner{seedDocs: docs}
}

func stripFragment(iri string) string {
	for i := 0; i < len(iri); i++ {
		if iri[i] == '#' {
			return iri[:i]
		}
	}
	return iri
}

// Optimize rewrites the operator tree, reordering every maximal join chain
// by the zero-knowledge heuristics. The tree is otherwise preserved.
func (p *Planner) Optimize(op algebra.Operator) algebra.Operator {
	switch x := op.(type) {
	case algebra.Join:
		leaves := collectJoinLeaves(x)
		for i, l := range leaves {
			leaves[i] = p.Optimize(l)
		}
		return p.order(leaves)
	case algebra.LeftJoin:
		return algebra.LeftJoin{Left: p.Optimize(x.Left), Right: p.Optimize(x.Right), Filters: x.Filters}
	case algebra.Union:
		return algebra.Union{Left: p.Optimize(x.Left), Right: p.Optimize(x.Right)}
	case algebra.Minus:
		return algebra.Minus{Left: p.Optimize(x.Left), Right: p.Optimize(x.Right)}
	case algebra.Filter:
		return algebra.Filter{Input: p.Optimize(x.Input), Expr: x.Expr}
	case algebra.Extend:
		return algebra.Extend{Input: p.Optimize(x.Input), Var: x.Var, Expr: x.Expr}
	case algebra.Project:
		return algebra.Project{Input: p.Optimize(x.Input), Names: x.Names}
	case algebra.Distinct:
		return algebra.Distinct{Input: p.Optimize(x.Input)}
	case algebra.Reduced:
		return algebra.Reduced{Input: p.Optimize(x.Input)}
	case algebra.OrderBy:
		return algebra.OrderBy{Input: p.Optimize(x.Input), Conds: x.Conds}
	case algebra.Slice:
		return algebra.Slice{Input: p.Optimize(x.Input), Offset: x.Offset, Limit: x.Limit}
	case algebra.Group:
		return algebra.Group{Input: p.Optimize(x.Input), By: x.By, Items: x.Items}
	default:
		return op
	}
}

// collectJoinLeaves flattens a left-deep (or arbitrary) join tree into its
// conjunctive operands.
func collectJoinLeaves(op algebra.Operator) []algebra.Operator {
	if j, ok := op.(algebra.Join); ok {
		return append(collectJoinLeaves(j.Left), collectJoinLeaves(j.Right)...)
	}
	return []algebra.Operator{op}
}

// order greedily builds a left-deep join tree: highest-scoring operand
// first, then repeatedly the highest-scoring operand connected to the
// planned prefix.
func (p *Planner) order(leaves []algebra.Operator) algebra.Operator {
	if len(leaves) == 0 {
		return algebra.Unit{}
	}
	if len(leaves) == 1 {
		return leaves[0]
	}
	type scored struct {
		op    algebra.Operator
		score int
		idx   int
	}
	remaining := make([]scored, len(leaves))
	for i, l := range leaves {
		remaining[i] = scored{op: l, score: p.score(l), idx: i}
	}
	// Stable order: by score descending, original position ascending.
	sort.SliceStable(remaining, func(i, j int) bool {
		if remaining[i].score != remaining[j].score {
			return remaining[i].score > remaining[j].score
		}
		return remaining[i].idx < remaining[j].idx
	})

	bound := map[string]bool{}
	take := func(k int) algebra.Operator {
		s := remaining[k]
		remaining = append(remaining[:k], remaining[k+1:]...)
		for _, v := range s.op.Vars() {
			bound[v] = true
		}
		return s.op
	}
	connected := func(op algebra.Operator) bool {
		for _, v := range op.Vars() {
			if bound[v] {
				return true
			}
		}
		return false
	}

	result := take(0)
	for len(remaining) > 0 {
		pick := -1
		for k := range remaining {
			if connected(remaining[k].op) {
				pick = k
				break
			}
		}
		if pick < 0 {
			// No connected operand: unavoidable Cartesian product; take the
			// best remaining.
			pick = 0
		}
		result = algebra.Join{Left: result, Right: take(pick)}
	}
	return result
}

// score rates an operand; higher runs earlier.
func (p *Planner) score(op algebra.Operator) int {
	switch x := op.(type) {
	case algebra.Values:
		// Inline data is tiny and fully bound: schedule first.
		return 100
	case algebra.Pattern:
		return p.scorePattern(x.Triple)
	case algebra.PathPattern:
		s := 0
		if !x.S.IsVar() {
			s += 4
		}
		if !x.O.IsVar() {
			s += 2
		}
		// Transitive paths are expensive; nudge later.
		return s - 2
	default:
		// Complex operands (unions, subqueries) run after seed-anchored
		// patterns but participate in connectivity ordering.
		return 0
	}
}

// scorePattern applies the zero-knowledge heuristics to one triple pattern.
func (p *Planner) scorePattern(t rdf.Triple) int {
	score := 0
	if t.S.Kind == rdf.TermIRI {
		score += 4
		if p.seedDocs[stripFragment(t.S.Value)] {
			score += 8
		}
	}
	if t.O.Kind != rdf.TermVar {
		score += 3
		if t.O.Kind == rdf.TermIRI && p.seedDocs[stripFragment(t.O.Value)] {
			score += 8
		}
	}
	if t.P.Kind != rdf.TermVar {
		score++
		// Class-membership patterns are unselective: a constant-object
		// rdf:type pattern matches every instance of the class.
		if t.P.Value == rdf.RDFType && t.O.Kind != rdf.TermVar {
			score -= 4
		}
	}
	return score
}
