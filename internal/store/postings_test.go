package store

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"ltqp/internal/rdf"
)

// refIndexes is the representation postings replaced: one append-grown
// slice per key, per index.
type refIndexes struct {
	s, p, o map[rdf.TermID][]int32
	sp, po  map[uint64][]int32
}

func (r *refIndexes) add(t rdf.IDTriple, i int32) {
	r.s[t.S] = append(r.s[t.S], i)
	r.p[t.P] = append(r.p[t.P], i)
	r.o[t.O] = append(r.o[t.O], i)
	r.sp[t.SP()] = append(r.sp[t.SP()], i)
	r.po[t.PO()] = append(r.po[t.PO()], i)
}

// constPattern compiles a pattern with the given positions constant.
func constPattern(t rdf.IDTriple, s, p, o bool) idPattern {
	pat := idPattern{sameAs: [3]int8{-1, -1, -1}, isVar: [3]bool{!s, !p, !o}}
	if s {
		pat.id[0] = t.S
	}
	if p {
		pat.id[1] = t.P
	}
	if o {
		pat.id[2] = t.O
	}
	return pat
}

// TestPostingsMatchReferenceIndexes drives random ID triples through the
// store and a map[K][]int32 reference side by side and compares the
// candidate list of every index shape — P, and the four built on demand (S,
// O, SP, PO), each first probed at a different point mid-stream so both its
// bulk build and its incremental maintenance are covered — while live BGP
// readers drain a predicate from the start and a subject and an object
// from mid-stream, concurrently with the ingest (run under -race). Keys are
// drawn from small ranges so lists outgrow the inline slots and several
// arena runs.
func TestPostingsMatchReferenceIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	ref := &refIndexes{s: map[rdf.TermID][]int32{}, p: map[rdf.TermID][]int32{}, o: map[rdf.TermID][]int32{},
		sp: map[uint64][]int32{}, po: map[uint64][]int32{}}
	const docs, perDoc = 120, 60
	term := func(n int) rdf.TermID { return rdf.TermID(1 + rng.Intn(n)) }

	// drain counts what a live BGP over pat yields until the store closes,
	// checking every triple against keep and the order of arrival against
	// the store's insertion order.
	drain := func(pat idPattern, keep func(rdf.IDTriple) bool) chan int {
		live := idBGP(s, pat)
		drained := make(chan int)
		go func() {
			defer live.Release()
			n, last := 0, int32(-1)
			for {
				at, ok := step(context.Background(), live)
				for _, pos := range at {
					if tr := live.v.triples.at(pos); !keep(tr) || pos <= last {
						t.Errorf("live BGP over %+v yielded %v at %d after %d", pat.id, tr, pos, last)
					}
					last = pos
				}
				n += len(at)
				if !ok {
					break
				}
			}
			drained <- n
		}()
		return drained
	}
	// The live reader from the start: everything with predicate 1.
	byP := drain(constPattern(rdf.IDTriple{P: 1}, false, true, false), func(tr rdf.IDTriple) bool { return tr.P == 1 })
	var byS, byO chan int

	// Each on-demand index is first probed once this many documents are in.
	firstProbe := map[string]int{"S": docs / 4, "SP": docs / 3, "O": docs / 2, "PO": 2 * docs / 3}
	built := func() map[string]bool {
		return map[string]bool{"S": s.bySubject != nil, "O": s.byObject != nil, "SP": s.bySP != nil, "PO": s.byPO != nil}
	}
	probe := func(d int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, is := range built() {
			if is && d < firstProbe[name] {
				t.Fatalf("%s index exists after %d documents, before anything probed its shape", name, d)
			}
		}
		for n := 0; n < 40; n++ {
			t0 := rdf.IDTriple{S: term(40), P: term(6), O: term(300)}
			if s.triples.len() > 0 && n%2 == 0 {
				t0 = s.triples.at(rng.Int31n(s.triples.len())) // a key that is present
			}
			shapes := []struct {
				name string
				pat  idPattern
				want []int32
			}{
				{"S", constPattern(t0, true, false, false), ref.s[t0.S]},
				{"P", constPattern(t0, false, true, false), ref.p[t0.P]},
				{"O", constPattern(t0, false, false, true), ref.o[t0.O]},
				{"SP", constPattern(t0, true, true, false), ref.sp[t0.SP()]},
				{"PO", constPattern(t0, false, true, true), ref.po[t0.PO()]},
			}
			for _, sh := range shapes {
				if d < firstProbe[sh.name] {
					continue
				}
				got, _ := s.candidates(&sh.pat, true)
				if len(got) == 0 && len(sh.want) == 0 {
					continue
				}
				if !reflect.DeepEqual(append([]int32(nil), got...), sh.want) {
					t.Fatalf("%s candidates for %v after %d triples = %v, reference %v",
						sh.name, t0, s.triples.len(), got, sh.want)
				}
			}
		}
	}

	for d := 0; d < docs; d++ {
		// Live readers of S and of O, started when their index is first
		// probed: they see what is there, then what ingest keeps adding.
		if d == firstProbe["S"] {
			byS = drain(constPattern(rdf.IDTriple{S: 1}, true, false, false), func(tr rdf.IDTriple) bool { return tr.S == 1 })
		}
		if d == firstProbe["O"] {
			byO = drain(constPattern(rdf.IDTriple{O: 1}, false, false, true), func(tr rdf.IDTriple) bool { return tr.O == 1 })
		}
		ids := make([]rdf.IDTriple, perDoc)
		for i := range ids {
			ids[i] = rdf.IDTriple{S: term(40), P: term(6), O: term(300)}
		}
		before := s.Len()
		s.AddEncoded(1, ids)
		// Mirror what the store kept: duplicates are dropped, positions are
		// insertion order.
		s.mu.Lock()
		for i := int32(before); i < s.triples.len(); i++ {
			ref.add(s.triples.at(i), i)
		}
		s.mu.Unlock()
		probe(d)
	}
	for name, is := range built() {
		if !is {
			t.Fatalf("%s index was never built", name)
		}
	}
	s.Close()
	for name, live := range map[string]struct {
		got  chan int
		want int
	}{"predicate 1": {byP, len(ref.p[1])}, "subject 1": {byS, len(ref.s[1])}, "object 1": {byO, len(ref.o[1])}} {
		if got := <-live.got; got != live.want {
			t.Errorf("live BGP drained %d triples with %s, reference has %d", got, name, live.want)
		}
	}
}

// The position table is the store's set of triples and its way to their
// provenance: duplicates within a document and across documents are dropped,
// the first contributor keeps the attribution, and both hold while the table
// is re-placed many times over as documents attach.
func TestPositionsDedupAndFirstContributor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	doc := func(d int) rdf.Term { return rdf.NewIRI("http://pod/doc" + strconv.Itoa(d)) }
	term := func(n int) rdf.Term { return rdf.NewIRI("http://x/t" + strconv.Itoa(rng.Intn(n))) }
	first := map[rdf.Triple]int{} // triple -> the document that brought it first
	var sizes []int
	const docs = 400
	for d := 0; d < docs; d++ {
		src := s.dict.Intern(doc(d))
		ids := make([]rdf.IDTriple, 0, 24)
		fresh := 0
		for i := 0; i < 20; i++ {
			// A small key space: a third of the triples repeat an earlier
			// document's.
			tr := rdf.NewTriple(term(300), term(5), term(40))
			if _, dup := first[tr]; !dup {
				first[tr] = d
				fresh++
			}
			ids = append(ids, s.dict.InternTriple(tr))
		}
		ids = append(ids, ids[0], ids[7], ids[0]) // and repeats within the document
		if got := s.AddEncoded(src, ids); got != fresh {
			t.Fatalf("document %d: AddEncoded = %d new triples, want %d", d, got, fresh)
		}
		if n := len(s.seen.slots); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
	}
	held := 0
	for _, v := range s.seen.slots {
		if v != 0 {
			held++
		}
	}
	if s.Len() != len(first) || held != len(first) {
		t.Fatalf("Len = %d, table holds %d, want %d distinct triples", s.Len(), held, len(first))
	}
	if len(sizes) < 4 {
		t.Fatalf("table sizes %v: the test must cross several re-placements", sizes)
	}
	if 4*held > 3*len(s.seen.slots) {
		t.Errorf("table load %d/%d exceeds 3/4", held, len(s.seen.slots))
	}
	if len(s.origins) > docs {
		t.Errorf("%d provenance runs for %d documents", len(s.origins), docs)
	}
	for tr, d := range first {
		it, _ := s.dict.LookupTriple(tr)
		pos, _, ok := s.seen.find(&s.triples, it)
		if !ok || s.triples.at(pos) != it {
			t.Fatalf("triple %v: find = %d, %v", tr, pos, ok)
		}
		if src, ok := s.Source(tr); !ok || src != doc(d) {
			t.Fatalf("Source(%v) = %v, %v; first contributor was document %d", tr, src, ok, d)
		}
	}
	absent := rdf.NewTriple(rdf.NewIRI("http://x/t0"), rdf.NewIRI("http://x/t1"), rdf.NewIRI("http://x/never"))
	if _, ok := s.Source(absent); ok {
		t.Error("Source found a triple nobody added")
	}
}

// Attaching a document to a store that is in use costs a bounded number of
// allocations, not one per triple or per key: nothing is allocated but the
// occasional doubling of the triple array, the position table, an index map
// or slab, and a fresh arena chunk. Nobody probed S or O, so those two
// indexes do not exist and cost nothing.
func TestAttachAllocations(t *testing.T) {
	const perDoc, warm, runs = 20, 100, 200
	s := New()
	segment := func(d int) []rdf.IDTriple {
		ids := make([]rdf.IDTriple, perDoc)
		for i := range ids {
			// A document's own subject with a handful of properties.
			ids[i] = rdf.IDTriple{S: rdf.TermID(1000 + d*4 + i/5), P: rdf.TermID(1 + i%7), O: rdf.TermID(100000 + d*perDoc + i)}
		}
		return ids
	}
	var segs [][]rdf.IDTriple
	for d := 0; d < warm+runs+1; d++ {
		segs = append(segs, segment(d))
	}
	for d := 0; d < warm; d++ {
		s.AddEncoded(rdf.TermID(d+1), segs[d])
	}
	// What a star join over the store has probed by now.
	s.MatchNow(rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewVar("o")))
	s.MatchNow(rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o")))
	if s.bySP == nil || s.byPO == nil || s.bySubject != nil || s.byObject != nil {
		t.Fatal("want SP and PO built, S and O not")
	}
	d := warm
	perAttach := testing.AllocsPerRun(runs, func() {
		if s.AddEncoded(rdf.TermID(d+1), segs[d]) != perDoc {
			t.Fatal("segment not new")
		}
		d++
	})
	// Measured: fewer than one (AllocsPerRun reports the whole part, 0).
	const limit = 1
	if perAttach > limit {
		t.Errorf("attaching a %d-triple segment: %.2f allocations on average, want at most %d", perDoc, perAttach, limit)
	}
}

// A warm query's store allocates about what it keeps: attaching 127
// segments of 19 triples, nothing probed, allocates at most 1.3 times the
// bytes the store holds once they are in (its triple log, position table,
// predicate postings with their arena, provenance and dictionary). A log
// that grew as one slice allocated about twice what it kept.
func TestAttachAllocatesWhatItKeeps(t *testing.T) {
	const docs, perDoc = 127, 19
	segs := make([][]rdf.IDTriple, docs)
	for d := range segs {
		segs[d] = make([]rdf.IDTriple, perDoc)
		for i := range segs[d] {
			segs[d][i] = rdf.IDTriple{S: rdf.TermID(1000 + d*3 + i/7), P: rdf.TermID(1 + i%9), O: rdf.TermID(1<<20 + d*perDoc + i)}
		}
	}
	// Kept is the live heap with the store less the live heap without it,
	// each after collecting twice (pooled objects outlive one collection).
	var m0, m1, m2, m3 runtime.MemStats
	collect := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	collect(&m0)
	s := New()
	for d, seg := range segs {
		s.AddEncoded(rdf.TermID(1+d), seg)
	}
	runtime.ReadMemStats(&m1)
	collect(&m2)
	if s.Len() != docs*perDoc {
		t.Fatalf("store holds %d triples, want %d", s.Len(), docs*perDoc)
	}
	runtime.KeepAlive(s)
	collect(&m3)
	allocated, kept := m1.TotalAlloc-m0.TotalAlloc, m2.HeapAlloc-m3.HeapAlloc
	if 10*allocated > 13*kept {
		t.Errorf("attaching %d segments allocated %d bytes for %d kept: more than 1.3 times", docs, allocated, kept)
	}
}

// A posting list stays one contiguous slice across the inline-to-run move
// and every doubling, and runs carved from one chunk never overlap.
func TestPostingsGrowth(t *testing.T) {
	var a arena
	ps := newPostings(&a, 0)
	other := newPostings(&a, 0)
	const n = 3 * arenaChunk
	for i := int32(0); i < n; i++ {
		ps.add(1, i)
		other.add(uint64(i%50), -i) // interleaved runs in the same chunks
		if i < 40 || i%997 == 0 {
			got := ps.list(1)
			if len(got) != int(i)+1 || got[0] != 0 || got[i] != i || got[i/2] != i/2 {
				t.Fatalf("after %d adds: list has %d entries, first %d, last %d", i+1, len(got), got[0], got[len(got)-1])
			}
		}
	}
	for k := uint64(0); k < 50; k++ {
		for j, v := range other.list(k) {
			if want := -(int32(k) + 50*int32(j)); v != want {
				t.Fatalf("key %d entry %d = %d, want %d: runs overlap", k, j, v, want)
			}
		}
	}
	if ps.list(2) != nil {
		t.Error("absent key must list nil")
	}
}

// idBGP returns a BGP over s of the one pattern p, compiled by hand over IDs
// the dictionary need not hold.
func idBGP(s *Store, p idPattern) *BGP {
	b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o")))
	b.pats[0].p = p
	return b
}

// A key's list moves from its single entry in one into a slot on its second
// position and into an arena run past inlinePostings. The test follows two
// such keys — a predicate in the eager byPredicate index and a (p,o) key in
// byPO, built on demand while that key holds one position — against the
// map reference, with a lone-pattern BGP over each, stepped once per
// attached document, and a delta read of the (p,o) list by position range,
// the read that builds byPO: each step must yield exactly the positions
// added since the last, none twice and none skipped, whatever moved the
// key's list.
func TestPostingsPromotionUnderLiveCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New()
	ref := &refIndexes{s: map[rdf.TermID][]int32{}, p: map[rdf.TermID][]int32{}, o: map[rdf.TermID][]int32{},
		sp: map[uint64][]int32{}, po: map[uint64][]int32{}}
	const p, o = 9, 9999 // the watched predicate and object; noise never uses them
	watched := rdf.IDTriple{P: p, O: o}
	noise := func() rdf.IDTriple {
		return rdf.IDTriple{S: rdf.TermID(1 + rng.Intn(30)), P: rdf.TermID(1 + rng.Intn(8)), O: rdf.TermID(100 + rng.Intn(200))}
	}
	add := func(ids ...rdf.IDTriple) {
		before := s.Len()
		s.AddEncoded(1, ids)
		s.mu.Lock()
		for i := int32(before); i < s.triples.len(); i++ {
			ref.add(s.triples.at(i), i)
		}
		s.mu.Unlock()
	}
	var byP, byPO *BGP
	var gotP, gotPO, gotIdx []int32
	pat := constPattern(watched, false, true, true)
	read := int32(0) // delta has read the (p,o) list below this position
	// check steps each BGP over the document just attached, reads the new
	// range of the (p,o) list, and compares what each has yielded, and
	// every P and PO candidate list, with the reference.
	check := func(when string) {
		n := int32(s.Len())
		gotIdx, read = s.delta(&pat, read, n, true, gotIdx), n
		for _, r := range []struct {
			b   *BGP
			got *[]int32
		}{{byP, &gotP}, {byPO, &gotPO}} {
			at, ok := step(context.Background(), r.b)
			if !ok {
				t.Fatalf("%s: the BGP ended on an open store", when)
			}
			*r.got = append(*r.got, at...)
		}
		if !reflect.DeepEqual(gotP, ref.p[p]) {
			t.Fatalf("%s: BGP over P yielded %v, reference %v", when, gotP, ref.p[p])
		}
		if !reflect.DeepEqual(gotPO, ref.po[watched.PO()]) || !reflect.DeepEqual(gotIdx, gotPO) {
			t.Fatalf("%s: BGP over PO yielded %v, delta over byPO %v, reference %v", when, gotPO, gotIdx, ref.po[watched.PO()])
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := int32(0); i < s.triples.len(); i++ {
			tr := s.triples.at(i)
			if got := s.byPredicate.list(uint64(tr.P)); !reflect.DeepEqual(append([]int32(nil), got...), ref.p[tr.P]) {
				t.Fatalf("%s: P list of %d = %v, reference %v", when, tr.P, got, ref.p[tr.P])
			}
			if got := s.byPO.list(tr.PO()); !reflect.DeepEqual(append([]int32(nil), got...), ref.po[tr.PO()]) {
				t.Fatalf("%s: PO list of %v = %v, reference %v", when, tr, got, ref.po[tr.PO()])
			}
		}
	}

	for d := 0; d < 5; d++ {
		add(noise(), noise(), noise())
	}
	byP = idBGP(s, constPattern(watched, false, true, false))
	defer byP.Release()
	byPO = idBGP(s, constPattern(watched, false, true, true))
	defer byPO.Release()
	add(rdf.IDTriple{S: 1, P: p, O: o}, noise())
	check("one position") // builds byPO, holding the watched key's single entry
	if s.byPO == nil || len(gotP) != 1 || len(gotPO) != 1 {
		t.Fatalf("after the first position: byPO built %v, the BGPs yielded %d and %d", s.byPO != nil, len(gotP), len(gotPO))
	}
	for k := 2; k <= 3*inlinePostings; k++ {
		add(noise(), rdf.IDTriple{S: rdf.TermID(k), P: p, O: o}, noise())
		check("position " + strconv.Itoa(k))
	}
	if len(gotPO) != 3*inlinePostings {
		t.Fatalf("the PO BGP saw %d positions, want %d", len(gotPO), 3*inlinePostings)
	}
	ones := 0
	for _, v := range s.byPO.idx {
		if v >= 0 {
			ones++
		}
	}
	if ones == 0 || ones == len(s.byPO.idx) {
		t.Fatalf("%d of %d PO keys single-entry: the noise must leave some keys single and promote others", ones, len(s.byPO.idx))
	}
}
