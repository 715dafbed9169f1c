package exec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

// Vectorized symmetric hash join. A sequential coordinator alternates
// between the two input batch streams; each arriving batch is first
// inserted into its side's columnar arena, then probed against the other
// side's arena — insert-before-probe per batch gives exactly-once pair
// emission. The probe phase is morsel-driven: workers steal fixed-size row
// ranges of the just-inserted batch and probe concurrently, which is safe
// because both arenas are read-only between coordinator steps. OPTIONAL is
// the same join with a filter on each pair and a matched flag per left row.

// joinArena is one side's accumulated rows, stored column-wise over the
// join's output schema (absent variables are NoTerm).
type joinArena struct {
	cols [][]rdf.TermID
	prov [][]rdf.TermID // nil without provenance
	n    int32
	// exact chains rows binding all shared variables by their shared-var
	// key: a key's rows link head to tail through next (parallel to the
	// rows, -1 ends a chain) in insertion order, so a new key costs a map
	// entry and no slice. Rows leaving a shared variable unbound (below
	// OPTIONAL/VALUES) go to partial and are probed linearly.
	exact   map[idKey]chain
	next    []int32
	partial []int32
	ids     []rdf.TermID // insertBatch's shared-key scratch
	// matched flags the rows that joined, for OPTIONAL's left arena only:
	// probes of either side set it atomically.
	matched []uint32
}

// joinWorker is one probe worker's state: the output batch under
// construction, a scratch row over the output schema, and the reader that
// evaluates OPTIONAL's filters (nil without filters).
type joinWorker struct {
	b   *Batch
	ids []rdf.TermID
	rr  *rowReader
}

// chain is the first and last row of one exact-key bucket.
type chain struct{ head, tail int32 }

// arenaPool recycles join arenas across joins: a join returns both arenas
// when its goroutine exits, and the next join reuses their map buckets and
// column capacity. An arena that grew past maxPooledArenaRows is dropped.
var arenaPool = sync.Pool{New: func() any { return &joinArena{exact: map[idKey]chain{}} }}

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

// putJoinArena empties a and returns it to the pool. No probe may still
// read it: runMorsels returns only after its workers finish.
func putJoinArena(a *joinArena) {
	if len(a.next) > maxPooledArenaRows {
		return
	}
	a.reset()
	arenaPool.Put(a)
}

// reset empties a, keeping the capacity of its map, columns and chains; it
// drops the provenance column, whose entries belong to the input batches.
func (a *joinArena) reset() {
	clear(a.exact)
	cols := a.cols[:cap(a.cols)]
	for c := range cols {
		cols[c] = cols[c][:0]
	}
	a.prov, a.n, a.next, a.partial, a.matched = nil, 0, a.next[:0], a.partial[:0], a.matched[:0]
}

// insertBatch appends the live rows of b (mapped through cmap onto the out
// schema) and files each into exact or partial. It returns the arena index
// of the first inserted row and, via keys/full (caller-owned scratch,
// resliced), each row's shared key and fullness.
func (a *joinArena) insertBatch(b *Batch, cmap []int, sharedIdx []int, keys []idKey, full []bool) (int32, []idKey, []bool) {
	start := a.n
	keys, full = keys[:0], full[:0]
	ids := slices.Grow(a.ids[:0], len(sharedIdx))[:len(sharedIdx)]
	a.ids = ids
	for i := 0; i < b.Len(); i++ {
		r := b.Row(i)
		for c, j := range cmap {
			if j >= 0 {
				a.cols[c] = append(a.cols[c], b.cols[j][r])
			} else {
				a.cols[c] = append(a.cols[c], rdf.NoTerm)
			}
		}
		if a.prov != nil {
			if b.prov != nil {
				a.prov = append(a.prov, b.prov[r])
			} else {
				a.prov = append(a.prov, nil)
			}
		}
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
		key := idKeyOf(ids)
		if !isFull {
			a.partial = append(a.partial, row)
		} else if ch, ok := a.exact[key]; ok {
			a.next[ch.tail] = row
			a.exact[key] = chain{ch.head, row}
		} else {
			a.exact[key] = chain{row, row}
		}
		keys = append(keys, key)
		full = append(full, isFull)
	}
	return start, keys, full
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

		// Per-worker probe state: an output batch under construction, a
		// scratch row and a filter reader. Workers send full batches
		// themselves; leftovers are flushed by the coordinator.
		ws := make([]joinWorker, env.workerCount())
		defer func() {
			for _, jw := range ws {
				putBatch(jw.b)
			}
		}()
		for w := range ws {
			ws[w].ids = make([]rdf.TermID, len(outVars))
			if filters != nil {
				ws[w].rr = newRowReader(filters...)
				ws[w].rr.bind(outVars)
			}
		}
		var aborted atomic.Bool
		emit := func(jw *joinWorker, prov []rdf.TermID) {
			if jw.b == nil {
				jw.b = env.getBatch(outVars, withProv)
			}
			if jw.b.appendRow(jw.ids, prov); jw.b.n >= batchCap {
				b := jw.b
				jw.b = nil
				if !sendBatch(ctx, out, b) {
					aborted.Store(true)
				}
			}
		}

		// tryPair merges arena rows (mr of mine, or of other) into worker
		// w's output batch; incompatible rows (both bind a variable to
		// different terms) and pairs failing the filters emit nothing.
		tryPair := func(w int, mine, other *joinArena, mr, or int32) {
			jw := &ws[w]
			for c := range jw.ids {
				v := mine.cols[c][mr]
				if ov := other.cols[c][or]; ov != rdf.NoTerm {
					if v == rdf.NoTerm {
						v = ov
					} else if v != ov {
						return
					}
				}
				jw.ids[c] = v
			}
			if jw.rr != nil && !holds(env, jw.rr.rowOf(env, jw.ids), filters...) {
				return
			}
			if outer {
				lr := mr
				if mine != la {
					lr = or
				}
				atomic.StoreUint32(&la.matched[lr], 1)
			}
			var prov []rdf.TermID
			if withProv {
				mp, op := mine.prov[mr], other.prov[or]
				prov = make([]rdf.TermID, 0, len(mp)+len(op))
				prov = append(append(prov, mp...), op...)
			}
			emit(jw, prov)
		}

		var keys []idKey
		var full []bool
		// processBatch inserts b into mine, then probes other over the
		// inserted rows, morsel-parallel.
		processBatch := func(b *Batch, mine, other *joinArena) {
			cmap := schemaMap(b.vars, outVars)
			var first int32
			first, keys, full = mine.insertBatch(b, cmap, sharedIdx, keys, full)
			putBatch(b)
			if outer && mine == la {
				n := len(la.matched)
				la.matched = slices.Grow(la.matched, len(keys))[:n+len(keys)]
				clear(la.matched[n:])
			}
			if env.Ledger != nil && len(keys) > 0 {
				delta := int64(len(keys)) * arenaRowBytes
				env.Ledger.Charge(resource.Exec, delta)
				arenaBytes += delta
			}
			runMorsels(env, len(keys), func(w, lo, hi int) {
				for k := lo; k < hi && !aborted.Load(); k++ {
					mr := first + int32(k)
					if full[k] {
						if ch, ok := other.exact[keys[k]]; ok {
							for or := ch.head; or >= 0; or = other.next[or] {
								tryPair(w, mine, other, mr, or)
							}
						}
						for _, or := range other.partial {
							tryPair(w, mine, other, mr, or)
						}
					} else {
						for or := int32(0); or < other.n; or++ {
							tryPair(w, mine, other, mr, or)
						}
					}
				}
			})
		}

		// flush forwards every worker's partial output batch. Called by
		// the coordinator between batches (keeping the pipeline
		// incremental: results never wait for a batch to fill across
		// input batches) and at stream end.
		flush := func() bool {
			for w := range ws {
				b := ws[w].b
				if b == nil {
					continue
				}
				ws[w].b = nil
				if b.Len() == 0 {
					putBatch(b)
					continue
				}
				if !sendBatch(ctx, out, b) {
					return false
				}
			}
			return true
		}

		l, r := left, right
		for (l != nil || r != nil) && !aborted.Load() {
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
		if outer && !aborted.Load() && ctx.Err() == nil {
			jw := &ws[0]
			for r := int32(0); r < la.n && !aborted.Load(); r++ {
				if la.matched[r] != 0 {
					continue
				}
				for c := range jw.ids {
					jw.ids[c] = la.cols[c][r]
				}
				var prov []rdf.TermID
				if withProv {
					prov = la.prov[r]
				}
				emit(jw, prov)
			}
		}
		flush()
	}()
	return out
}
