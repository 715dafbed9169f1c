package exec

import (
	"context"
	"slices"
	"sync"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

// Vectorized symmetric hash join. One goroutine alternates between the two
// input batch streams; each arriving batch is first inserted into its
// side's columnar arena, then probed against the other side's arena —
// insert-before-probe per batch gives exactly-once pair emission. That
// goroutine owns both arenas, so neither needs a lock. OPTIONAL is the same
// join with a filter on each pair and a matched flag per left row.

// joinArena is one side's accumulated rows, stored column-wise over the
// join's output schema (absent variables are NoTerm).
type joinArena struct {
	cols [][]rdf.TermID
	prov [][]rdf.TermID // nil without provenance
	n    int32
	// chains[s] links, in insertion order, the rows whose shared-var key has
	// slot s in the left arena's keys (both sides use them), head to tail
	// through next (parallel to the rows; -1 ends a chain, head -1: none).
	// Rows leaving a shared variable unbound (below OPTIONAL/VALUES) go to
	// partial and are probed linearly.
	chains  []chain
	next    []int32
	partial []int32
	keys    idTable      // the join's key slots, on the left arena only
	ids     []rdf.TermID // insertBatch's shared-key scratch
	matched []bool       // the rows that joined, for OPTIONAL's left arena only
}

// chain is the first and last row of one exact-key bucket.
type chain struct{ head, tail int32 }

// arenaPool recycles join arenas across joins: a join returns both arenas
// when its goroutine exits, and the next join reuses their map buckets and
// column capacity. An arena that grew past maxPooledArenaRows is dropped.
var arenaPool = sync.Pool{New: func() any { return new(joinArena) }}

const maxPooledArenaRows = 1 << 16

func getJoinArena(width int, withProv bool) *joinArena {
	a := arenaPool.Get().(*joinArena)
	if cap(a.cols) < width {
		a.cols = make([][]rdf.TermID, width)
	}
	a.cols = a.cols[:width]
	if withProv {
		a.prov = [][]rdf.TermID{}
	}
	return a
}

// putJoinArena empties a and returns it to the pool.
func putJoinArena(a *joinArena) {
	if len(a.next) > maxPooledArenaRows || a.keys.n > maxPooledArenaRows {
		return
	}
	a.reset()
	arenaPool.Put(a)
}

// reset empties a, keeping the capacity of its maps, columns and chains;
// it drops the provenance column, whose entries belong to the input batches.
func (a *joinArena) reset() {
	a.keys.reset()
	a.chains = a.chains[:0]
	cols := a.cols[:cap(a.cols)]
	for c := range cols {
		cols[c] = cols[c][:0]
	}
	a.prov, a.n, a.next, a.partial, a.matched = nil, 0, a.next[:0], a.partial[:0], a.matched[:0]
}

// insertBatch appends the live rows of b (mapped through cmap onto the out
// schema) and files each into its key's chain or into partial. It returns
// the arena index of the first inserted row and, via slots (caller-owned
// scratch, resliced), each row's key slot in keys, -1 for a partial row.
func (a *joinArena) insertBatch(b *Batch, cmap []int, sharedIdx []int, keys *idTable, slots []int32) (int32, []int32) {
	start := a.n
	slots = slots[:0]
	ids := slices.Grow(a.ids[:0], len(sharedIdx))[:len(sharedIdx)]
	a.ids = ids
	a.prov = appendLive(a.cols, a.prov, a.prov != nil, b, cmap, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		row := a.n
		a.n++
		a.next = append(a.next, -1)
		isFull := true
		for k, c := range sharedIdx {
			ids[k] = a.cols[c][row]
			if ids[k] == rdf.NoTerm {
				isFull = false
			}
		}
		if !isFull {
			a.partial = append(a.partial, row)
			slots = append(slots, -1)
			continue
		}
		s, _ := keys.slot(ids)
		for int(s) >= len(a.chains) {
			a.chains = append(a.chains, chain{-1, -1})
		}
		if ch := &a.chains[s]; ch.head < 0 {
			*ch = chain{row, row}
		} else {
			a.next[ch.tail] = row
			ch.tail = row
		}
		slots = append(slots, s)
	}
	return start, slots
}

// batchJoin joins left and right on the shared variables. With outer set
// it is OPTIONAL's left join: a pair is kept only when filters hold on the
// merged row, matches stream as they are found, and the left rows that
// never matched are emitted bare once both inputs have ended.
func batchJoin(ctx context.Context, env *Env, outVars, shared []string, filters []sparql.Expression, outer bool, left, right BatchStream) BatchStream {
	out := make(chan *Batch, batchChanCap)
	sharedIdx := make([]int, len(shared))
	for i, v := range shared {
		for c, w := range outVars {
			if w == v {
				sharedIdx[i] = c
				break
			}
		}
	}
	go func() {
		defer close(out)
		defer discard(right)
		defer discard(left)
		withProv := env.Prov != nil
		la := getJoinArena(len(outVars), withProv)
		ra := getJoinArena(len(outVars), withProv)
		defer putJoinArena(la)
		defer putJoinArena(ra)

		// The arenas grow for the lifetime of the join; every inserted row
		// is charged to the ledger as it lands and the whole spend is
		// released when the join ends. One column cell per output variable,
		// a hash posting, and a provenance reference when enabled.
		arenaRowBytes := int64(len(outVars))*termIDBytes + 4
		if withProv {
			arenaRowBytes += provRefBytes
		}
		var arenaBytes int64
		defer func() { env.Ledger.Release(resource.Exec, arenaBytes) }()

		// The output batch under construction, a scratch row over the
		// output schema, and the reader that evaluates OPTIONAL's filters
		// (nil without filters).
		var ob *Batch
		ids := make([]rdf.TermID, len(outVars))
		var rr *rowReader
		if filters != nil {
			rr = newRowReader(filters...)
			rr.bind(outVars)
		}
		aborted := false
		emit := func(prov []rdf.TermID) {
			if ob == nil {
				ob = env.getBatch(outVars, withProv)
			}
			if ob.appendRow(ids, prov); ob.n >= batchCap {
				b := ob
				ob = nil
				if !sendBatch(ctx, out, b) {
					aborted = true
				}
			}
		}

		// tryPair merges arena rows (mr of mine, or of other) into the
		// output batch; incompatible rows (both bind a variable to
		// different terms) and pairs failing the filters emit nothing.
		tryPair := func(mine, other *joinArena, mr, or int32) {
			for c := range ids {
				v := mine.cols[c][mr]
				if ov := other.cols[c][or]; ov != rdf.NoTerm {
					if v == rdf.NoTerm {
						v = ov
					} else if v != ov {
						return
					}
				}
				ids[c] = v
			}
			if rr != nil && !holds(env, rr.rowOf(env, ids), filters...) {
				return
			}
			if outer {
				lr := mr
				if mine != la {
					lr = or
				}
				la.matched[lr] = true
			}
			var prov []rdf.TermID
			if withProv {
				mp, op := mine.prov[mr], other.prov[or]
				prov = make([]rdf.TermID, 0, len(mp)+len(op))
				prov = append(append(prov, mp...), op...)
			}
			emit(prov)
		}

		var slots []int32
		// processBatch inserts b into mine, then probes other with each
		// inserted row.
		processBatch := func(b *Batch, mine, other *joinArena) {
			cmap := schemaMap(b.vars, outVars)
			var first int32
			first, slots = mine.insertBatch(b, cmap, sharedIdx, &la.keys, slots)
			putBatch(b)
			if outer && mine == la {
				n := len(la.matched)
				la.matched = slices.Grow(la.matched, len(slots))[:n+len(slots)]
				clear(la.matched[n:])
			}
			if env.Ledger != nil && len(slots) > 0 {
				delta := int64(len(slots)) * arenaRowBytes
				env.Ledger.Charge(resource.Exec, delta)
				arenaBytes += delta
			}
			for k := 0; k < len(slots) && !aborted; k++ {
				mr := first + int32(k)
				if s := slots[k]; s >= 0 {
					if int(s) < len(other.chains) {
						for or := other.chains[s].head; or >= 0; or = other.next[or] {
							tryPair(mine, other, mr, or)
						}
					}
					for _, or := range other.partial {
						tryPair(mine, other, mr, or)
					}
				} else {
					for or := int32(0); or < other.n; or++ {
						tryPair(mine, other, mr, or)
					}
				}
			}
		}

		// flush forwards the partial output batch. Called between input
		// batches (keeping the pipeline incremental: results never wait for
		// a batch to fill across input batches) and at stream end.
		flush := func() bool {
			if ob == nil {
				return true
			}
			b := ob
			ob = nil
			return sendBatch(ctx, out, b)
		}

		l, r := left, right
		for (l != nil || r != nil) && !aborted {
			select {
			case b, ok := <-l:
				if !ok {
					l = nil
					continue
				}
				processBatch(b, la, ra)
			case b, ok := <-r:
				if !ok {
					r = nil
					continue
				}
				processBatch(b, ra, la)
			case <-ctx.Done():
				return
			}
			if !flush() {
				return
			}
		}
		if outer && !aborted && ctx.Err() == nil {
			for r := int32(0); r < la.n && !aborted; r++ {
				if la.matched[r] {
					continue
				}
				for c := range ids {
					ids[c] = la.cols[c][r]
				}
				var prov []rdf.TermID
				if withProv {
					prov = la.prov[r]
				}
				emit(prov)
			}
		}
		flush()
	}()
	return out
}
