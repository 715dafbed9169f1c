package store

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"ltqp/internal/rdf"
)

// BGP evaluates a basic graph pattern (a conjunction of triple patterns,
// each optionally inside GRAPH) over the store's positions, incrementally,
// while the store grows. It reads the triples in place: a position never
// changes its triple, so the store's lock is held only to look up a posting
// list and to wait for growth, which one call does on behalf of every
// pattern.
//
// Each time the store grows from lo to hi triples (a step), every pattern i
// in turn drives from its matches in [lo, hi), probing the patterns ranked
// below it among positions < hi and those ranked above it among positions
// < lo: the delta rule of semi-naive evaluation. A solution is therefore
// produced exactly once, in the step its last-arriving triple arrives, by
// the highest-ranked pattern that triple matches. Ranks are fixed in the
// first step by candidate-list length, shortest on top, ties going to plan
// order, and each driver probes next, repeatedly, the pattern that shares a
// variable with those placed and has the shortest candidate list.
//
// A probe returns ascending positions from one of two sources, fixed at
// start by whether the store is closed. Over a closed store (one step,
// [0, n), where only the top-ranked pattern drives) it is the store's own
// postings for the (s,p), (p,o), exact-triple or single-term shape, built on
// first use and shared by every query over the store. Over a growing store
// it is the evaluator's own pooled indexes, each keyed on the variables one
// pattern is probed on and holding positions, not copies of rows; the store
// builds nothing for them, in particular no subject-keyed index.
//
// When the caller keeps only some of the variables, under set semantics,
// a level of a driver's probe order whose pattern binds or last reads a
// variable that neither the caller nor a later level reads keeps a seen-set
// of the bound values still needed after it: a partial row whose needed
// values that level has already extended in the current drive is skipped,
// since the levels after it, over the same position limits, would only
// repeat the kept values they gave (see DESIGN.md, "Seen-sets").
type BGP struct {
	s     *Store
	pats  []bgpPattern
	v     view
	index bool // the store was closed at start: probes read its postings
	tally func(src rdf.TermID)
	out   *Rows
	ctx   context.Context
	// w makes ctx's cancellation wake a wait for growth: registered at the
	// first wait and kept until Release, not once per step.
	w waiter
	// done: nothing is left to wait for, or the step under way must stop.
	done bool
	// rank orders the patterns for the delta rule; cost is each one's
	// candidate-list length in the current step.
	rank, cost []int
	// The current driver's probe order and, per level, masks over S, P, O
	// and GRAPH of that level's pattern: the positions whose variable a
	// level before it bound (probed on, and checked), and the positions that
	// bind a variable first.
	order        []int
	masks, fresh []uint8
	driver       int
	bound        []bool
	// row is the solution being built, over the evaluator's variables;
	// at[j] is the position pattern j matched in it.
	row []rdf.TermID
	at  []int32
	// all[j] holds pattern j's matches so far, those before the current
	// step up to from[j]; tabs[j][mask] indexes them on the masked
	// positions. bufs holds each level's closed-store probe.
	all    [][]int32
	from   []int
	tabs   [][16]*posIndex
	bufs   [][]int32
	lo, hi int32
	// keep marks the columns the caller reads; nil: every column. With it,
	// need[k] lists, for a level k that keeps a seen-set (dedup[k]), the
	// columns bound by then and read after it, and seen[k] holds the values
	// at them that level k extended in the current drive. live and boundAt
	// are plan's scratch.
	keep    []bool
	dedup   []bool
	need    [][]int
	seen    []seenSet
	live    []bool
	boundAt []int
}

// Rows is where BGP.Next appends solutions, column-wise: a solution's term
// for variable c goes to Cols[c] and, when the evaluator tallies, the
// documents of the triples it joined to Srcs, and N counts it. Before it
// appends a solution to Rows already holding Cap of them, Next calls Flush,
// which must leave room (hand the rows on and empty Rows, or give it new
// columns and a larger Cap) or return false to stop the evaluation. A zero
// Cap makes the first solution ask Flush for columns.
type Rows struct {
	Cols   [][]rdf.TermID
	Srcs   [][]rdf.TermID
	N, Cap int
	Flush  func() bool
}

// seenSet is one level's seen-set: the needed values, in need order, of the
// partial rows the level extended. maxSeenKey bounds how many a level may
// need; a level that needs more keeps no seen-set, which only forgoes the
// skipping.
type seenSet map[[maxSeenKey]rdf.TermID]struct{}

const (
	maxSeenKey = 4
	// seenEntryBytes estimates one seen-set entry: its key and the map's
	// per-slot overhead.
	seenEntryBytes = 24
)

var seenPool = sync.Pool{New: func() any { return seenSet{} }}

// bgpPattern is one compiled pattern: the row column each of S, P, O and
// the GRAPH term binds (-1: a constant, or no GRAPH), the positions that
// repeat an earlier position's variable (dup) and that position (same), and
// a constant GRAPH.
type bgpPattern struct {
	p     idPattern
	col   [4]int
	same  [4]int
	dup   uint8
	graph bool
	gid   rdf.TermID
}

// BGP returns an evaluator of the patterns whose solutions are rows over
// vars, one TermID per variable, every variable of every pattern among
// them. A pattern's G is its GRAPH term, zero for none. With tally set, it
// is called with the document of every match of every pattern, and each
// solution comes with the documents of the triples it joined.
//
// keep, when not nil, lists the variables the caller reads, under set
// semantics: the evaluator still yields every distinct combination of their
// values but may skip solutions that repeat one, and a skipped solution's
// other variables are not reported. nil keeps every variable and every
// solution.
func (s *Store) BGP(vars, keep []string, patterns []rdf.Quad, tally func(src rdf.TermID)) *BGP {
	n := len(patterns)
	b := &BGP{s: s, pats: make([]bgpPattern, n), tally: tally,
		rank: make([]int, n), cost: make([]int, n), bound: make([]bool, len(vars)),
		row: make([]rdf.TermID, len(vars)), at: make([]int32, n), all: make([][]int32, n),
		from: make([]int, n), tabs: make([][16]*posIndex, n), bufs: make([][]int32, n)}
	if keep != nil && slices.ContainsFunc(vars, func(v string) bool { return !slices.Contains(keep, v) }) {
		b.keep = make([]bool, len(vars))
		for c, v := range vars {
			b.keep[c] = slices.Contains(keep, v)
		}
		b.dedup, b.need, b.seen = make([]bool, n), make([][]int, n), make([]seenSet, n)
		b.live, b.boundAt = make([]bool, len(vars)), make([]int, len(vars))
	}
	for j, q := range patterns {
		bp := bgpPattern{p: s.compilePattern(q.Triple), graph: !q.G.IsZero()}
		for k, t := range [4]rdf.Term{q.S, q.P, q.O, q.G} {
			bp.col[k], bp.same[k] = -1, -1
			if t.IsVar() {
				bp.col[k] = slices.Index(vars, t.Value)
				if bp.same[k] = slices.Index(bp.col[:k], bp.col[k]); bp.same[k] >= 0 {
					bp.dup |= 1 << k
				}
			}
		}
		if bp.graph && !q.G.IsVar() {
			bp.gid = s.dict.Intern(q.G)
		}
		b.pats[j] = bp
	}
	b.index = s.prepare(b.pats)
	return b
}

// Next waits until the store has grown or closed since the last call, then
// appends to out every solution the growth completes (Srcs only with
// tally). It reports false once there is nothing left to wait for: the
// store was closed and fully read, ctx was cancelled, or out.Flush returned
// false. Every call passes the same ctx.
func (b *BGP) Next(ctx context.Context, out *Rows) bool {
	if b.done {
		return false
	}
	lo := b.v.len()
	v, ok := b.s.await(ctx, lo, &b.w)
	b.v, b.ctx, b.out, b.done = v, ctx, out, !ok
	if ok && v.len() > lo {
		b.step(lo, v.len())
	}
	if b.done {
		return false
	}
	b.done = v.closed
	return true
}

// step processes the store's growth from lo to hi triples.
func (b *BGP) step(lo, hi int32) {
	b.lo, b.hi = lo, hi
	if len(b.pats) == 1 {
		b.all[0] = b.all[0][:0] // a lone pattern is never probed
	}
	for j := range b.pats {
		b.from[j] = len(b.all[j])
		if b.index {
			b.cost[j] = b.s.count(&b.pats[j].p)
			continue
		}
		b.all[j] = b.matches(j, lo, hi, b.all[j])
		b.cost[j] = len(b.all[j])
		for mask, x := range b.tabs[j] {
			for _, pos := range b.all[j][b.from[j]:] {
				if x == nil {
					break
				}
				x.add(b.key(uint8(mask), b.vals(j, pos)), pos)
			}
		}
	}
	if lo == 0 {
		order := b.order[:0]
		for j := range b.pats {
			order = append(order, j)
		}
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(b.cost[x], b.cost[y]) })
		for r, j := range order {
			b.rank[j] = len(order) - 1 - r
		}
	}
	for i := range b.pats {
		switch {
		case !b.index:
			b.drive(i)
		case b.rank[i] == len(b.pats)-1:
			b.all[i] = b.matches(i, lo, hi, b.all[i])
			b.drive(i)
		case b.tally != nil: // tally every pattern's matches
			b.all[i] = b.matches(i, lo, hi, b.all[i])
		}
	}
}

// matches appends pattern j's matches in [lo, hi) to into, tallying each
// one's document.
func (b *BGP) matches(j int, lo, hi int32, into []int32) []int32 {
	n := len(into)
	into = b.s.delta(&b.pats[j].p, lo, hi, b.index, into)
	if !b.pats[j].graph && b.tally == nil {
		return into
	}
	keep := into[:n]
	for _, pos := range into[n:] {
		if !b.bind(j, pos, 0, 0) {
			continue
		}
		if b.tally != nil {
			b.tally(b.v.source(pos))
		}
		keep = append(keep, pos)
	}
	return keep
}

// drive extends each of pattern i's matches of the current step into
// solutions, unless a pattern ranked above i has no match before the step.
func (b *BGP) drive(i int) {
	if len(b.all[i]) == b.from[i] {
		return
	}
	for j, r := range b.rank {
		if r > b.rank[i] && b.from[j] == 0 {
			return
		}
	}
	b.driver = i
	b.plan(i)
	for k, pos := range b.all[i][b.from[i]:] {
		if b.done || k%64 == 0 && b.ctx.Err() != nil {
			return
		}
		if b.bind(i, pos, 0, b.fresh[0]) && (b.keep == nil || b.unseen(0)) {
			b.extend(1)
		}
	}
}

// plan orders driver i's probes: next, repeatedly, the pattern sharing a
// variable with those placed (any, when none does) with the shortest
// candidate list, ties going to plan order.
func (b *BGP) plan(i int) {
	clear(b.bound)
	b.order, b.masks, b.fresh = append(b.order[:0], i), append(b.masks[:0], 0), b.fresh[:0]
	for {
		pt := &b.pats[b.order[len(b.order)-1]]
		var fresh uint8
		for k, c := range pt.col {
			if c >= 0 && !b.bound[c] && pt.same[k] < 0 {
				fresh |= 1 << k
			}
		}
		b.fresh = append(b.fresh, fresh)
		if len(b.order) == len(b.pats) {
			if b.keep != nil {
				b.planSeen()
			}
			return
		}
		for _, c := range pt.col {
			if c >= 0 {
				b.bound[c] = true
			}
		}
		best, bestMask := -1, uint8(0)
		for j := range b.pats {
			var mask uint8
			for k, c := range b.pats[j].col {
				if c >= 0 && b.bound[c] {
					mask |= 1 << k
				}
			}
			if slices.Contains(b.order, j) || best >= 0 && (mask == 0 && bestMask != 0 ||
				(mask == 0) == (bestMask == 0) && b.cost[j] >= b.cost[best]) {
				continue
			}
			best, bestMask = j, mask
		}
		b.order, b.masks = append(b.order, best), append(b.masks, bestMask)
	}
}

// planSeen decides, for the driver's probe order, which levels keep a
// seen-set and on which columns. Walking the order backwards it tracks the
// columns live after each level: kept, or read (probed on and checked) by
// a later level. A level other than the last whose pattern holds a column
// not live after it binds or last reads that column, so the rows it
// extends may repeat on the live columns bound so far: those are its
// needed columns, and it keeps a seen-set on them unless they are more than
// maxSeenKey. The last level needs none: the caller deduplicates whole
// solutions. Every seen-set is emptied, since it holds the previous
// drive's rows, in another probe order.
func (b *BGP) planSeen() {
	n := len(b.order)
	for c := range b.boundAt {
		b.boundAt[c] = n
	}
	for k, j := range b.order {
		for p, c := range b.pats[j].col {
			if b.fresh[k]&(1<<p) != 0 {
				b.boundAt[c] = k
			}
		}
	}
	copy(b.live, b.keep)
	for k := n - 1; k >= 0; k-- {
		pt := &b.pats[b.order[k]]
		dies := false
		for _, c := range pt.col {
			dies = dies || c >= 0 && !b.live[c]
		}
		need := b.need[k][:0]
		if dies && k < n-1 {
			for c, at := range b.boundAt {
				if at <= k && b.live[c] {
					need = append(need, c)
				}
			}
		}
		b.need[k], b.dedup[k] = need, dies && k < n-1 && len(need) <= maxSeenKey
		for p, c := range pt.col {
			if b.masks[k]&(1<<p) != 0 {
				b.live[c] = true
			}
		}
		if s := b.seen[k]; len(s) > 0 {
			clear(s)
		}
	}
}

// unseen reports whether the row bound through level k is to be extended:
// the level keeps no seen-set, or its seen-set did not hold the row's
// needed values yet, and now does.
func (b *BGP) unseen(k int) bool {
	if !b.dedup[k] {
		return true
	}
	var key [maxSeenKey]rdf.TermID
	for i, c := range b.need[k] {
		key[i] = b.row[c]
	}
	s := b.seen[k]
	if s == nil {
		s = seenPool.Get().(seenSet)
		b.seen[k] = s
	}
	if _, ok := s[key]; ok {
		return false
	}
	s[key] = struct{}{}
	return true
}

// extend binds the patterns of the probe order from level k on and emits
// every complete row.
func (b *BGP) extend(k int) {
	if k == len(b.order) {
		b.emit()
		return
	}
	j := b.order[k]
	lim := b.hi
	if b.rank[j] > b.rank[b.driver] {
		lim = b.lo
	}
	for _, pos := range b.probe(k, j) {
		if pos >= lim || b.done {
			return
		}
		if b.bind(j, pos, b.masks[k], b.fresh[k]) && (b.keep == nil || b.unseen(k)) {
			b.extend(k + 1)
		}
	}
}

// emit appends the complete row, and with tally the documents of the
// triples it joined, to the output, flushing the output first when full.
func (b *BGP) emit() {
	out := b.out
	if out.N == out.Cap && !out.Flush() {
		b.done = true
		return
	}
	for c, id := range b.row {
		out.Cols[c] = append(out.Cols[c], id)
	}
	if b.tally != nil {
		srcs := make([]rdf.TermID, len(b.at))
		for j, pos := range b.at {
			srcs[j] = b.v.source(pos)
		}
		out.Srcs = append(out.Srcs, srcs)
	}
	out.N++
}

// probe returns the ascending positions that may match pattern j at level
// k under the row: from the store's postings over a closed store, else from
// the evaluator's index of j on the level's mask, built on first use.
func (b *BGP) probe(k, j int) []int32 {
	pt, mask := &b.pats[j], b.masks[k]
	var v [4]rdf.TermID
	for p, c := range pt.col {
		if mask&(1<<p) != 0 {
			v[p] = b.row[c]
		}
	}
	if b.index {
		b.bufs[k] = b.s.probe(&pt.p, [3]rdf.TermID(v[:3]), b.bufs[k][:0])
		return b.bufs[k]
	}
	if mask == 0 {
		return b.all[j]
	}
	x := b.tabs[j][mask]
	if x == nil {
		x = indexPool.Get().(*posIndex)
		for _, pos := range b.all[j] {
			x.add(b.key(mask, b.vals(j, pos)), pos)
		}
		b.tabs[j][mask] = x
	}
	return x.list(b.key(mask, v))
}

// key packs the masked values into an index key: exactly for up to two,
// hashed beyond (bind rejects a position whose key merely collides).
func (b *BGP) key(mask uint8, v [4]rdf.TermID) uint64 {
	var h uint64
	for p, n := 0, 0; p < 4; p++ {
		if mask&(1<<p) != 0 {
			if n++; n <= 2 {
				h = h<<32 | uint64(v[p])
			} else {
				h = (h ^ uint64(v[p])) * 0x9e3779b97f4a7c15
			}
		}
	}
	return h
}

// vals returns the terms at S, P, O and, for a GRAPH pattern, the source
// document of the triple at pos.
func (b *BGP) vals(j int, pos int32) [4]rdf.TermID {
	t := b.v.triples.at(pos)
	v := [4]rdf.TermID{t.S, t.P, t.O, rdf.NoTerm}
	if b.pats[j].graph {
		v[3] = b.v.source(pos)
	}
	return v
}

// bind matches pattern j at pos into the row: the triple must agree with
// itself where the pattern repeats a variable, with its GRAPH constant, and
// with the row at the check positions; the fresh positions then bind their
// columns. A failed bind leaves fresh columns that no one reads, since only
// the levels after it read them, and they run only once it succeeds.
func (b *BGP) bind(j int, pos int32, check, fresh uint8) bool {
	pt := &b.pats[j]
	t := b.v.triples.at(pos)
	v := [4]rdf.TermID{t.S, t.P, t.O, rdf.NoTerm}
	if pt.graph {
		if v[3] = b.v.source(pos); v[3] == rdf.NoTerm || pt.gid != rdf.NoTerm && v[3] != pt.gid {
			return false
		}
	}
	for m := pt.dup; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros8(m); v[p] != v[pt.same[p]] {
			return false
		}
	}
	for m := check; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros8(m); b.row[pt.col[p]] != v[p] {
			return false
		}
	}
	for m := fresh; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		b.row[pt.col[p]] = v[p]
	}
	b.at[j] = pos
	return true
}

// Bytes estimates the memory the evaluator holds: four bytes per pattern
// match, its indexes, and its seen-sets' entries.
func (b *BGP) Bytes() int64 {
	var n int64
	for j := range b.pats {
		n += int64(cap(b.all[j])) * 4
		for _, x := range b.tabs[j] {
			if x != nil {
				n += x.bytes()
			}
		}
	}
	for _, s := range b.seen {
		n += int64(len(s)) * seenEntryBytes
	}
	return n
}

// Release returns the evaluator's indexes and seen-sets to their pools and
// unregisters its wake-up; b must not be used again.
func (b *BGP) Release() {
	b.w.done()
	for j := range b.tabs {
		for _, x := range b.tabs[j] {
			if x != nil {
				x.release()
			}
		}
	}
	for _, s := range b.seen {
		if s != nil && len(s) <= maxPooledIndex {
			clear(s)
			seenPool.Put(s)
		}
	}
}

// view is the store as the evaluator saw it at one moment: its first len()
// triples, which never change, the documents that contributed them, and
// whether it was closed, in which case it holds every triple the store will.
type view struct {
	triples tripleLog
	origins []origin
	closed  bool
}

func (v view) len() int32 { return v.triples.len() }

// source returns the document that contributed the triple at pos.
func (v view) source(pos int32) rdf.TermID {
	k := sort.Search(len(v.origins), func(k int) bool { return v.origins[k].from > pos })
	return v.origins[k-1].src
}

// await returns the store's view once it holds more than n triples or is
// closed; ok is false when ctx is cancelled first. w is the caller's
// registration for ctx's cancellation (see waitLocked).
func (s *Store) await(ctx context.Context, n int32, w *waiter) (v view, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.triples.len() <= n && !s.closed {
		if ctx.Err() != nil {
			return view{}, false
		}
		s.waitLocked(ctx, w)
	}
	return view{s.triples, s.origins, s.closed}, ctx.Err() == nil
}

// delta appends to into, in ascending order, the positions in [lo, hi)
// whose triples match p, and returns it. With index it reads the pattern's
// most selective posting list: for a closed store, whose indexes every
// query over it shares. Without it, it reads only the predicate postings
// every store keeps, or every position of the range when the predicate is
// not constant.
func (s *Store) delta(p *idPattern, lo, hi int32, index bool, into []int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scan(p, lo, hi, index, into)
}

// prepare reports whether the store is closed and, if it is, builds every
// index a probe of the patterns can read, whichever of their variables are
// bound: a closed store adds nothing, and reading an index that exists
// writes nothing, so from then on probes need no lock.
func (s *Store) prepare(pats []bgpPattern) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range pats {
		for bound := 0; bound < 8 && s.closed; bound++ {
			q := pats[i].p
			for k := 0; k < 3; k++ {
				if bound&(1<<k) != 0 && q.isVar[k] {
					q.id[k], q.isVar[k] = 1, false // any term: the shape picks the index
				}
			}
			s.candidates(&q, true)
		}
	}
	return s.closed
}

// probe appends to into, in ascending order, the positions of the triples
// that match p once each variable position that bound holds a term for
// (NoTerm: still a variable) is taken as that constant, and returns it. It
// reads one posting list of the store's own: the exact triple's, an (s,p)
// or (p,o) pair's, or a single term's. The store must be closed and
// prepared for p, since probe takes no lock.
func (s *Store) probe(p *idPattern, bound [3]rdf.TermID, into []int32) []int32 {
	q := *p
	exact := true
	for k, id := range bound {
		if q.isVar[k] && id != rdf.NoTerm {
			q.id[k], q.isVar[k] = id, false
		}
		exact = exact && !q.isVar[k]
	}
	if exact {
		if i, _, ok := s.seen.find(&s.triples, rdf.IDTriple{S: q.id[0], P: q.id[1], O: q.id[2]}); ok {
			into = append(into, i)
		}
		return into
	}
	return s.scan(&q, 0, s.triples.len(), true, into)
}

// count returns the length of the posting list delta reads with index set:
// how many triples p can match at most.
func (s *Store) count(p *idPattern) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if list, all := s.candidates(p, true); !all {
		return len(list)
	}
	return int(s.triples.len())
}

// posIndex files positions under uint64 keys, each key's in the order they
// are added, in the store's posting layout: four bytes a position and no
// allocation per key. BGP keeps its per-pattern indexes in them, pooled.
type posIndex struct {
	ps   postings
	runs arena
}

var indexPool = sync.Pool{New: func() any {
	x := new(posIndex)
	x.ps = postings{idx: map[uint64]int32{}, arena: &x.runs}
	return x
}}

// maxPooledIndex is the number of keys beyond which a released index is
// dropped rather than pooled.
const maxPooledIndex = 1 << 16

func (x *posIndex) add(key uint64, pos int32) { x.ps.add(key, pos) }

func (x *posIndex) list(key uint64) []int32 { return x.ps.list(key) }

// bytes estimates the memory x filled since it left the pool: the key
// table, the single-position and inline slots in use and the arena runs it
// carved. The capacity a pooled index kept from an earlier evaluator is not
// this one's.
func (x *posIndex) bytes() int64 {
	return int64(len(x.ps.idx))*16 + int64(len(x.ps.one))*4 + int64(len(x.ps.slab))*48 + int64(x.runs.carved)*4
}

// release empties x and returns it to the pool.
func (x *posIndex) release() {
	if len(x.ps.idx) > maxPooledIndex {
		return
	}
	clear(x.ps.idx)
	clear(x.ps.slab)
	x.ps.one, x.ps.slab = x.ps.one[:0], x.ps.slab[:0]
	x.runs.chunk, x.runs.carved = x.runs.chunk[:0], 0
	indexPool.Put(x)
}
