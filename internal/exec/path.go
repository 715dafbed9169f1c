package exec

import (
	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// evalPathSnapshot computes the solutions of a transitive or negated
// property path over the current store contents. The pipeline runs it once
// the store has closed: a closure over a growing source keeps extending.
func evalPathSnapshot(env *Env, p algebra.PathPattern) []rdf.Binding {
	var out []rdf.Binding
	emit := func(s, o rdf.Term) {
		b := rdf.NewBinding()
		ok := true
		if p.S.IsVar() {
			b, ok = b.Extend(p.S.Value, s)
			if !ok {
				return
			}
		} else if p.S != s {
			return
		}
		if p.O.IsVar() {
			b, ok = b.Extend(p.O.Value, o)
			if !ok {
				return
			}
		} else if p.O != o {
			return
		}
		out = append(out, b)
	}

	switch {
	case !p.S.IsVar():
		for _, o := range pathReachable(env, p.Path, p.S) {
			emit(p.S, o)
		}
	case !p.O.IsVar():
		for _, s := range pathReachable(env, invertPath(p.Path), p.O) {
			emit(s, p.O)
		}
	default:
		// Both endpoints variable: evaluate from every candidate start
		// node in the snapshot.
		for _, n := range snapshotNodes(env) {
			for _, o := range pathReachable(env, p.Path, n) {
				emit(n, o)
			}
		}
	}
	// Deduplicate (closures can reach a node along multiple routes).
	seen := map[string]bool{}
	dedup := out[:0]
	vars := []string{}
	if p.S.IsVar() {
		vars = append(vars, p.S.Value)
	}
	if p.O.IsVar() {
		vars = append(vars, p.O.Value)
	}
	for _, b := range out {
		k := b.Key(vars)
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// snapshotNodes returns all distinct subject and object terms currently in
// the store.
func snapshotNodes(env *Env) []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for _, t := range env.Store.Snapshot() {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
	}
	return out
}

// pathReachable returns the set of terms reachable from start via the path.
func pathReachable(env *Env, path sparql.Path, start rdf.Term) []rdf.Term {
	switch x := path.(type) {
	case sparql.PathZeroOrMore:
		return closure(env, x.Path, start, true)
	case sparql.PathOneOrMore:
		return closure(env, x.Path, start, false)
	case sparql.PathZeroOrOne:
		res := []rdf.Term{start}
		seen := map[rdf.Term]bool{start: true}
		for _, o := range pathStep(env, x.Path, start) {
			if !seen[o] {
				seen[o] = true
				res = append(res, o)
			}
		}
		return res
	default:
		return pathStep(env, path, start)
	}
}

// closure computes the (zero-or-more / one-or-more) transitive closure of
// the inner path from start via BFS.
func closure(env *Env, inner sparql.Path, start rdf.Term, includeZero bool) []rdf.Term {
	visited := map[rdf.Term]bool{}
	var order []rdf.Term
	frontier := []rdf.Term{start}
	if includeZero {
		visited[start] = true
		order = append(order, start)
	}
	for len(frontier) > 0 {
		var next []rdf.Term
		for _, n := range frontier {
			for _, o := range pathStep(env, inner, n) {
				if !visited[o] {
					visited[o] = true
					order = append(order, o)
					next = append(next, o)
				}
			}
		}
		frontier = next
	}
	return order
}

// pathStep enumerates one-step successors of node via the path.
func pathStep(env *Env, path sparql.Path, node rdf.Term) []rdf.Term {
	switch x := path.(type) {
	case sparql.PathIRI:
		var out []rdf.Term
		for _, t := range env.Store.MatchNow(rdf.NewTriple(node, rdf.NewIRI(x.IRI), rdf.NewVar("o"))) {
			out = append(out, t.O)
		}
		return out
	case sparql.PathVar:
		var out []rdf.Term
		for _, t := range env.Store.MatchNow(rdf.NewTriple(node, rdf.NewVar("p"), rdf.NewVar("o"))) {
			out = append(out, t.O)
		}
		return out
	case sparql.PathInverse:
		switch inner := x.Path.(type) {
		case sparql.PathIRI:
			var out []rdf.Term
			for _, t := range env.Store.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI(inner.IRI), node)) {
				out = append(out, t.S)
			}
			return out
		case sparql.PathVar:
			var out []rdf.Term
			for _, t := range env.Store.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), node)) {
				out = append(out, t.S)
			}
			return out
		default:
			// Push the inversion down to the leaves, where the two cases
			// above terminate the recursion.
			return pathReachable(env, invertPath(inner), node)
		}
	case sparql.PathSequence:
		frontier := []rdf.Term{node}
		for _, part := range x.Parts {
			seen := map[rdf.Term]bool{}
			var next []rdf.Term
			for _, n := range frontier {
				for _, o := range pathReachable(env, part, n) {
					if !seen[o] {
						seen[o] = true
						next = append(next, o)
					}
				}
			}
			frontier = next
		}
		return frontier
	case sparql.PathAlternative:
		seen := map[rdf.Term]bool{}
		var out []rdf.Term
		for _, part := range x.Parts {
			for _, o := range pathReachable(env, part, node) {
				if !seen[o] {
					seen[o] = true
					out = append(out, o)
				}
			}
		}
		return out
	case sparql.PathZeroOrMore, sparql.PathOneOrMore, sparql.PathZeroOrOne:
		return pathReachable(env, path, node)
	case sparql.PathNegated:
		var out []rdf.Term
		if len(x.Forward) > 0 || len(x.Inverse) == 0 {
			forbidden := map[string]bool{}
			for _, iri := range x.Forward {
				forbidden[iri] = true
			}
			for _, t := range env.Store.MatchNow(rdf.NewTriple(node, rdf.NewVar("p"), rdf.NewVar("o"))) {
				if t.P.Kind == rdf.TermIRI && !forbidden[t.P.Value] {
					out = append(out, t.O)
				}
			}
		}
		if len(x.Inverse) > 0 {
			forbidden := map[string]bool{}
			for _, iri := range x.Inverse {
				forbidden[iri] = true
			}
			for _, t := range env.Store.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), node)) {
				if t.P.Kind == rdf.TermIRI && !forbidden[t.P.Value] {
					out = append(out, t.S)
				}
			}
		}
		return out
	default:
		return nil
	}
}

// invertPath syntactically inverts a path: reachable(inv(p), o) = the set
// of s with (s, p, o).
func invertPath(path sparql.Path) sparql.Path {
	switch x := path.(type) {
	case sparql.PathIRI:
		return sparql.PathInverse{Path: x}
	case sparql.PathVar:
		return sparql.PathInverse{Path: x}
	case sparql.PathInverse:
		return x.Path
	case sparql.PathSequence:
		parts := make([]sparql.Path, len(x.Parts))
		for i, p := range x.Parts {
			parts[len(x.Parts)-1-i] = invertPath(p)
		}
		return sparql.PathSequence{Parts: parts}
	case sparql.PathAlternative:
		parts := make([]sparql.Path, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = invertPath(p)
		}
		return sparql.PathAlternative{Parts: parts}
	case sparql.PathZeroOrMore:
		return sparql.PathZeroOrMore{Path: invertPath(x.Path)}
	case sparql.PathOneOrMore:
		return sparql.PathOneOrMore{Path: invertPath(x.Path)}
	case sparql.PathZeroOrOne:
		return sparql.PathZeroOrOne{Path: invertPath(x.Path)}
	case sparql.PathNegated:
		return sparql.PathNegated{Forward: x.Inverse, Inverse: x.Forward}
	default:
		return path
	}
}
