package rdf

import (
	"slices"
	"strings"
)

// Triple is an RDF triple. Pattern triples may contain variables in any
// position; data triples must be ground (no variables, no undef terms).
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its components.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples-like syntax (without trailing dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// IsGround reports whether the triple contains no variables or undef terms,
// i.e. it is a data triple rather than a pattern.
func (t Triple) IsGround() bool {
	for _, x := range [3]Term{t.S, t.P, t.O} {
		if x.Kind == TermVar || x.Kind == TermUndef {
			return false
		}
	}
	return true
}

// Vars returns the distinct variable names appearing in the triple, in
// subject-predicate-object order; nil for a ground triple.
func (t Triple) Vars() []string {
	var vars []string
	for _, x := range [3]Term{t.S, t.P, t.O} {
		if x.Kind != TermVar || slices.Contains(vars, x.Value) {
			continue
		}
		if vars == nil {
			vars = make([]string, 0, 3)
		}
		vars = append(vars, x.Value)
	}
	return vars
}

// Matches reports whether the ground triple data matches the pattern t,
// treating variables in t as wildcards. Repeated variables must bind to
// identical terms (e.g. ?x :p ?x).
func (t Triple) Matches(data Triple) bool {
	var bound [3]struct {
		name string
		term Term
	}
	n := 0
	check := func(pat, dat Term) bool {
		if pat.Kind == TermVar {
			for i := 0; i < n; i++ {
				if bound[i].name == pat.Value {
					return bound[i].term == dat
				}
			}
			bound[n].name = pat.Value
			bound[n].term = dat
			n++
			return true
		}
		return pat == dat
	}
	return check(t.S, data.S) && check(t.P, data.P) && check(t.O, data.O)
}

// Bind substitutes variables in the pattern with their values from b,
// leaving unbound variables in place.
func (t Triple) Bind(b Binding) Triple {
	sub := func(x Term) Term {
		if x.Kind == TermVar {
			if v, ok := b.Get(x.Value); ok {
				return v
			}
		}
		return x
	}
	return Triple{S: sub(t.S), P: sub(t.P), O: sub(t.O)}
}

// Quad is a triple plus the graph (document) it was found in. In the
// traversal engine the graph records the document IRI a triple was
// dereferenced from, which drives link extraction and provenance.
type Quad struct {
	Triple
	G Term
}

// NewQuad builds a quad from its components.
func NewQuad(s, p, o, g Term) Quad { return Quad{Triple: Triple{S: s, P: p, O: o}, G: g} }

// String renders the quad in N-Quads-like syntax (without trailing dot).
func (q Quad) String() string {
	if q.G.IsZero() {
		return q.Triple.String()
	}
	return q.Triple.String() + " " + q.G.String()
}

// Graph is an in-memory set of triples with insertion order preserved. It is
// the simple (non-concurrent) dataset used by parsers, the pod builder and
// tests; the engine's growing source lives in internal/store.
type Graph struct {
	triples []Triple
	index   map[Triple]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[Triple]struct{})}
}

// Add inserts a triple if not already present; it reports whether the triple
// was new.
func (g *Graph) Add(t Triple) bool {
	if _, ok := g.index[t]; ok {
		return false
	}
	g.index[t] = struct{}{}
	g.triples = append(g.triples, t)
	return true
}

// AddAll inserts all triples from ts.
func (g *Graph) AddAll(ts []Triple) {
	for _, t := range ts {
		g.Add(t)
	}
}

// Has reports whether the graph contains the ground triple t.
func (g *Graph) Has(t Triple) bool {
	_, ok := g.index[t]
	return ok
}

// Len returns the number of distinct triples in the graph.
func (g *Graph) Len() int { return len(g.triples) }

// Triples returns the triples in insertion order. The returned slice is
// shared; callers must not modify it.
func (g *Graph) Triples() []Triple { return g.triples }

// Match returns all triples matching the pattern (variables are wildcards).
func (g *Graph) Match(pattern Triple) []Triple {
	var out []Triple
	for _, t := range g.triples {
		if pattern.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

// Objects returns the objects of all triples with the given subject and
// predicate.
func (g *Graph) Objects(s, p Term) []Term {
	var out []Term
	for _, t := range g.triples {
		if t.S == s && t.P == p {
			out = append(out, t.O)
		}
	}
	return out
}

// FirstObject returns the first object for (s, p), or a zero Term.
func (g *Graph) FirstObject(s, p Term) Term {
	for _, t := range g.triples {
		if t.S == s && t.P == p {
			return t.O
		}
	}
	return Term{}
}

// Subjects returns the distinct subjects of triples with the given predicate
// and object.
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	seen := map[Term]bool{}
	for _, t := range g.triples {
		if t.P == p && t.O == o && !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
	}
	return out
}

// IsA reports whether the graph asserts rdf:type class for subject s.
func (g *Graph) IsA(s Term, class string) bool {
	for _, t := range g.triples {
		if t.S == s && t.P.Value == RDFType && t.P.Kind == TermIRI &&
			t.O.Kind == TermIRI && t.O.Value == class {
			return true
		}
	}
	return false
}

// StripFragment returns the IRI without its fragment component; non-IRI
// terms are returned unchanged. Traversal dereferences documents, so
// fragment identifiers (e.g. WebID #me) must be stripped before fetching.
func StripFragment(t Term) Term {
	if t.Kind != TermIRI {
		return t
	}
	if i := strings.IndexByte(t.Value, '#'); i >= 0 {
		return NewIRI(t.Value[:i])
	}
	return t
}
