package store

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ltqp/internal/rdf"
)

// fuzzInput reads a store and a basic graph pattern from fuzz bytes, each
// choice one byte modulo its range; an exhausted input reads zeros.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

// bgpCase is a store's documents, in attach order, and a basic graph
// pattern over them, with the variables its caller keeps (nil: all).
type bgpCase struct {
	docs    []rdf.Term
	triples [][]rdf.Triple
	vars    []string
	keep    []string
	pats    []rdf.Quad
	tally   bool
}

func readBGPCase(in fuzzInput) bgpCase {
	var c bgpCase
	for d := 1 + in.next(4); d > 0; d-- {
		c.docs = append(c.docs, iri(fmt.Sprintf("doc%d", len(c.docs))))
	}
	// Subjects and objects are drawn from the documents too, so a GRAPH
	// variable can join a subject, and from a literal.
	terms := []rdf.Term{iri("e0"), iri("e1"), iri("e2"), iri("e3"), rdf.NewLiteral("lit")}
	terms = append(terms, c.docs...)
	preds := []rdf.Term{iri("p0"), iri("p1"), iri("p2")}
	c.triples = make([][]rdf.Triple, len(c.docs))
	for d := range c.docs {
		for k := in.next(64); k > 0; k-- {
			c.triples[d] = append(c.triples[d], rdf.NewTriple(terms[in.next(len(terms))], preds[in.next(len(preds))], terms[in.next(len(terms))]))
		}
	}
	vars := []string{"a", "b", "c"}
	term := func(consts []rdf.Term) rdf.Term {
		switch k := in.next(16); {
		case k < 6:
			return rdf.NewVar(vars[k%3])
		case k == 15:
			return rdf.Term{} // an undef constant: matches nothing
		default:
			return consts[k%len(consts)]
		}
	}
	for n := 1 + in.next(3); n > 0; n-- {
		q := rdf.Quad{Triple: rdf.NewTriple(term(terms), term(preds), term(terms))}
		switch in.next(4) {
		case 1:
			q.G = rdf.NewVar([]string{"a", "b", "c", "g"}[in.next(4)])
		case 2:
			q.G = c.docs[in.next(len(c.docs))]
		}
		c.pats = append(c.pats, q)
		for _, t := range []rdf.Term{q.S, q.P, q.O, q.G} {
			if t.IsVar() && !slices.Contains(c.vars, t.Value) {
				c.vars = append(c.vars, t.Value)
			}
		}
	}
	c.tally = in.next(2) == 1
	if mask := in.next(16); mask != 0 { // a subset of the variables, maybe empty
		c.keep = []string{}
		for i, v := range c.vars {
			if mask&(1<<i) != 0 {
				c.keep = append(c.keep, v)
			}
		}
	}
	return c
}

// solutions collects a BGP's rows, with their sources when it tallies, as a
// multiset, the set of their values at the kept variables, and the tallies
// per document.
type solutions struct {
	rows    map[string]int
	kept    map[string]bool
	tallies map[rdf.TermID]int
	cols    []int // the kept variables' columns
}

func (c bgpCase) newSolutions() *solutions {
	sol := &solutions{rows: map[string]int{}, kept: map[string]bool{}, tallies: map[rdf.TermID]int{}}
	for i, v := range c.vars {
		if c.keep == nil || slices.Contains(c.keep, v) {
			sol.cols = append(sol.cols, i)
		}
	}
	return sol
}

func (s *solutions) emit(row, srcs []rdf.TermID) bool {
	s.rows[fmt.Sprint(row, srcs)]++
	kept := make([]rdf.TermID, len(s.cols))
	for i, c := range s.cols {
		kept[i] = row[c]
	}
	s.kept[fmt.Sprint(kept)] = true
	return true
}

func (c bgpCase) bgp(st *Store, sol *solutions) *BGP {
	var tally func(rdf.TermID)
	if c.tally {
		tally = func(src rdf.TermID) { sol.tallies[src]++ }
	}
	return st.BGP(c.vars, c.keep, c.pats, tally)
}

// nestedLoop is the reference: pattern after pattern, every current match
// of the pattern by MatchNow that agrees with the row so far, its GRAPH
// term bound to the triple's source document.
func (c bgpCase) nestedLoop(st *Store) *solutions {
	sol := c.newSolutions()
	d := st.Dict()
	row := make([]rdf.TermID, len(c.vars))
	set := make([]bool, len(c.vars))
	var srcs []rdf.TermID
	if c.tally {
		srcs = make([]rdf.TermID, len(c.pats))
	}
	// bind matches pattern j's triple tr into the row, reporting what it set.
	bind := func(j int, tr rdf.Triple) (fresh []int, ok bool) {
		q := c.pats[j]
		src, _ := st.Source(tr)
		if !q.G.IsZero() && !q.G.IsVar() && q.G != src {
			return nil, false
		}
		ids, _ := d.LookupTriple(tr)
		vals := [4]rdf.TermID{ids.S, ids.P, ids.O, d.Intern(src)}
		for k, t := range [4]rdf.Term{q.S, q.P, q.O, q.G} {
			if !t.IsVar() {
				continue
			}
			col := slices.Index(c.vars, t.Value)
			if set[col] && row[col] != vals[k] {
				for _, f := range fresh {
					set[f] = false
				}
				return nil, false
			}
			if !set[col] {
				row[col], set[col] = vals[k], true
				fresh = append(fresh, col)
			}
		}
		if srcs != nil {
			srcs[j] = vals[3]
		}
		return fresh, true
	}
	for j, q := range c.pats { // every pattern's own matches, as BGP tallies them
		for _, tr := range st.MatchNow(q.Triple) {
			if fresh, ok := bind(j, tr); ok {
				if c.tally {
					sol.tallies[srcs[j]]++
				}
				for _, f := range fresh {
					set[f] = false
				}
			}
		}
	}
	var join func(j int)
	join = func(j int) {
		if j == len(c.pats) {
			sol.emit(row, srcs)
			return
		}
		for _, tr := range st.MatchNow(c.pats[j].Triple) {
			if fresh, ok := bind(j, tr); ok {
				join(j + 1)
				for _, f := range fresh {
					set[f] = false
				}
			}
		}
	}
	join(0)
	return sol
}

// FuzzBGPAgainstNestedLoop evaluates a random basic graph pattern — repeated
// variables, undef constants, GRAPH variables and constants — over a small
// store in both of the evaluator's modes: attached document by document
// while the BGP steps, reading the predicate postings and its own pooled
// indexes, and closed before it starts, probing the store's postings. Both
// must give the multiset of solutions, sources and tallies of a nested-loop
// join over MatchNow. When the case keeps a subset of the variables, the
// evaluator may skip solutions: each one it gives, with its sources, must
// be one of the nested loop's, and together they must give the same set of
// kept values, and the same tallies.
func FuzzBGPAgainstNestedLoop(f *testing.F) {
	// A lone (?a, p0, ?b) against MatchNow, over 240 random triples in four
	// documents, which fill the store's first pages; then a few random
	// inputs.
	r := rand.New(rand.NewSource(1))
	lone := []byte{3}
	for d := 0; d < 4; d++ {
		lone = append(lone, 60)
		for k := 0; k < 3*60; k++ {
			lone = append(lone, byte(r.Intn(256)))
		}
	}
	loneCase, seedStore := readBGPCase(lone), New()
	for d, doc := range loneCase.docs {
		seedStore.AddDocument(doc.Value, loneCase.triples[d])
	}
	if n := seedStore.Len(); n <= 2<<firstShift {
		f.Fatalf("the lone seed's store holds %d triples, within its first two pages", n)
	}
	f.Add(append(lone, 0, 0, 6, 1, 0, 0))
	// The chain (?a p0 ?b) (?b p1 ?c), keeping ?c, with tallies; and
	// (?a p0 ?b) (?b p1 ?c) (?c p2 e0), keeping ?a.
	f.Add(append(slices.Clip(lone), 1, 0, 6, 1, 0, 1, 7, 2, 0, 1, 4))
	f.Add(append(slices.Clip(lone), 2, 0, 6, 1, 0, 1, 7, 2, 0, 2, 8, 9, 0, 0, 1))
	for seed := int64(0); seed < 8; seed++ {
		data := make([]byte, 40+20*seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := readBGPCase(data)
		dict := rdf.NewDict()
		ctx := context.Background()

		grown, growing := c.newSolutions(), NewWithDict(dict)
		b := c.bgp(growing, grown)
		for d, doc := range c.docs {
			if growing.AddDocument(doc.Value, c.triples[d]) > 0 && !next(ctx, b, grown.emit) {
				t.Fatal("the BGP ended on an open store")
			}
		}
		growing.Close()
		for next(ctx, b, grown.emit) {
		}
		b.Release()

		closed, st := c.newSolutions(), NewWithDict(dict)
		for d, doc := range c.docs {
			st.AddDocument(doc.Value, c.triples[d])
		}
		st.Close()
		b = c.bgp(st, closed)
		for next(ctx, b, closed.emit) {
		}
		b.Release()

		want := c.nestedLoop(st)
		for mode, got := range map[string]*solutions{"growing": grown, "closed": closed} {
			if c.keep == nil && !maps.Equal(got.rows, want.rows) {
				t.Errorf("%s %v: rows %v, nested loop %v", mode, c.pats, got.rows, want.rows)
			}
			for row := range got.rows {
				if want.rows[row] == 0 {
					t.Errorf("%s %v keeping %v: row %s is not the nested loop's", mode, c.pats, c.keep, row)
				}
			}
			if !maps.Equal(got.kept, want.kept) {
				t.Errorf("%s %v keeping %v: kept values %v, nested loop %v", mode, c.pats, c.keep, got.kept, want.kept)
			}
			if !maps.Equal(got.tallies, want.tallies) {
				t.Errorf("%s %v: tallies %v, nested loop %v", mode, c.pats, got.tallies, want.tallies)
			}
		}
	})
}
