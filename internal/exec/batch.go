// Vectorized execution core: operators exchange *Batch values — fixed-size
// collections of solution rows laid out as columnar slabs of dictionary term
// IDs — instead of one rdf.Binding per channel send. A batch carries its own
// variable schema (one column per variable), an optional selection vector
// (filters narrow batches without copying), and an optional parallel
// provenance column (per-row source-document ID sets), so Result.Explain()
// is unchanged when batches flow through the pipeline.
//
// Reference (ref.go) is the semantics every batch operator is pinned
// against: by the property-based suite (batch_prop_test.go), the
// differential harness (internal/baseline), and FuzzBatchSelection.
package exec

import (
	"context"
	"sync"

	"ltqp/internal/rdf"
	"ltqp/internal/resource"
)

const (
	// batchCap is the maximum number of rows per batch. Scans fill batches
	// greedily with whatever the store has available, so first results are
	// never delayed waiting for a batch to fill.
	batchCap = 1024
	// batchChanCap is the buffer size of inter-operator batch channels.
	batchChanCap = 4
)

// Batch is one unit of vectorized execution: up to batchCap solution rows
// over a fixed variable schema, stored column-wise as dictionary term IDs.
// NoTerm (0) in a column means the variable is unbound in that row — the
// same UNDEF sentinel the ID-keyed join/DISTINCT layer already uses.
//
// A batch is owned by exactly one consumer at a time: operators either
// mutate it in place (narrowing sel, appending a BIND column) and forward
// it, or copy what they need and release it to the pool.
type Batch struct {
	// vars is the schema: one entry per column. Operators must never
	// mutate it in place — it is shared between batches of one stream.
	vars []string
	// cols holds one slab per schema variable; each slab has n entries.
	cols [][]rdf.TermID
	// sel is the selection vector: physical indexes of the live rows, in
	// order. nil means all n rows are live. Indexes may be sparse and, at
	// API boundaries (fuzzed), out of order — but never duplicated: a
	// physical row is live at most once (BIND updates columns in place, so
	// an aliased row would observe its duplicate's write).
	sel []int32
	// prov, when non-nil, parallels the rows: prov[i] is the set of
	// source-document term IDs row i descends from. nil when provenance
	// is disabled (the default — zero cost).
	prov [][]rdf.TermID
	// n is the number of physical rows.
	n int
	// selbuf is the recycled backing slab operators write fresh selection
	// vectors into; it survives pooling even though sel itself is reset.
	selbuf []int32
	// lg, when non-nil, is the resource ledger the batch's slab capacity is
	// charged against (lgBytes under resource.Exec); putBatch releases the
	// charge. Batches acquired through Env.getBatch carry it downstream even
	// across operator handoffs, so in-flight buffered rows stay accounted.
	lg      *resource.Ledger
	lgBytes int64
}

const (
	// termIDBytes is the ledger cost of one column cell (rdf.TermID).
	termIDBytes = 4
	// provRefBytes is the ledger cost of one provenance row reference (a
	// slice header pointing into shared source-ID sets).
	provRefBytes = 24
)

// selSlab returns the batch's recycled selection slab, empty, for an
// operator about to build a selection vector from scratch.
func (b *Batch) selSlab() []int32 {
	if b.selbuf == nil {
		b.selbuf = make([]int32, 0, batchCap)
	}
	b.selbuf = b.selbuf[:0]
	return b.selbuf
}

// colSlab returns an empty column slab for a schema-extending operator
// (BIND), recovering a pooled slab parked beyond len(cols) when one exists.
func (b *Batch) colSlab() []rdf.TermID {
	if n := len(b.cols); cap(b.cols) > n {
		if s := b.cols[:n+1][n]; s != nil {
			return s[:0]
		}
	}
	return make([]rdf.TermID, 0, batchCap)
}

// BatchStream is a channel of batches produced by a vectorized operator.
type BatchStream <-chan *Batch

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Row returns the physical index of the i-th live row.
func (b *Batch) Row(i int) int32 {
	if b.sel != nil {
		return b.sel[i]
	}
	return int32(i)
}

// col returns the column index of a variable in the schema, or -1.
func (b *Batch) col(v string) int {
	for i, name := range b.vars {
		if name == v {
			return i
		}
	}
	return -1
}

// appendRow adds one physical row given one ID per schema column; prov may
// be nil. It returns the new physical row index.
func (b *Batch) appendRow(ids []rdf.TermID, prov []rdf.TermID) int {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], ids[c])
	}
	if b.prov != nil {
		b.prov = append(b.prov, prov)
	}
	i := b.n
	b.n++
	return i
}

// appendLive appends the live rows [lo, hi) of b, mapped through cmap
// onto the columns (-1: unbound), to cols and, with withProv, their
// provenance to prov, which it returns.
func appendLive(cols [][]rdf.TermID, prov [][]rdf.TermID, withProv bool, b *Batch, cmap []int, lo, hi int) [][]rdf.TermID {
	for c, j := range cmap {
		if j >= 0 && b.sel == nil {
			cols[c] = append(cols[c], b.cols[j][lo:hi]...)
			continue
		}
		for i := lo; i < hi; i++ {
			id := rdf.NoTerm
			if j >= 0 {
				id = b.cols[j][b.Row(i)]
			}
			cols[c] = append(cols[c], id)
		}
	}
	for i := lo; withProv && i < hi; i++ {
		var p []rdf.TermID
		if b.prov != nil {
			p = b.prov[b.Row(i)]
		}
		prov = append(prov, p)
	}
	return prov
}

// batchPool recycles batch shells and their column slabs. Steady-state
// vectorized execution allocates (almost) nothing per batch: shells cycle
// between producers and the decode boundary.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// getBatch returns an empty batch over the given schema. withProv
// preallocates the provenance column.
func getBatch(vars []string, withProv bool) *Batch {
	b := batchPool.Get().(*Batch)
	b.vars = vars
	if cap(b.cols) < len(vars) {
		old := b.cols[:cap(b.cols)]
		b.cols = make([][]rdf.TermID, len(vars))
		copy(b.cols, old)
	} else {
		b.cols = b.cols[:len(vars)]
	}
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.sel = nil
	b.n = 0
	if withProv {
		if b.prov == nil {
			b.prov = make([][]rdf.TermID, 0, batchCap)
		} else {
			b.prov = b.prov[:0]
		}
	} else {
		b.prov = nil
	}
	return b
}

// getBatch returns an empty batch over the given schema with its slab
// capacity charged to the environment's resource ledger (resource.Exec);
// putBatch releases the charge wherever the batch ends up. This is the
// acquisition path for all operator-built batches — the package-level
// getBatch stays uncharged for ledger-less tests.
func (e *Env) getBatch(vars []string, withProv bool) *Batch {
	b := getBatch(vars, withProv)
	if e != nil && e.Ledger != nil {
		n := int64(len(vars)) * batchCap * termIDBytes
		if withProv {
			n += batchCap * provRefBytes
		}
		e.Ledger.Charge(resource.Exec, n)
		b.lg, b.lgBytes = e.Ledger, n
	}
	return b
}

// putBatch releases a batch to the pool (and its ledger charge, when one is
// attached). The caller must not touch it afterwards.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	if b.lg != nil {
		b.lg.Release(resource.Exec, b.lgBytes)
		b.lg, b.lgBytes = nil, 0
	}
	b.vars = nil
	b.sel = nil
	for i := range b.prov {
		b.prov[i] = nil
	}
	b.prov = b.prov[:0]
	b.n = 0
	batchPool.Put(b)
}

// sendBatch delivers b unless the context is cancelled; it reports success.
// On failure the batch is released — the caller must not use it again.
func sendBatch(ctx context.Context, out chan<- *Batch, b *Batch) bool {
	select {
	case out <- b:
		return true
	case <-ctx.Done():
		putBatch(b)
		return false
	}
}

// sameVars reports whether two schemas are identical.
func sameVars(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// schemaMap returns, for every variable of to, its column index in from or
// -1 when absent.
func schemaMap(from, to []string) []int {
	m := make([]int, len(to))
	for i, v := range to {
		m[i] = -1
		for j, w := range from {
			if w == v {
				m[i] = j
				break
			}
		}
	}
	return m
}

// discard releases every batch left in a stream until its producer closes
// it. Operators that stop reading early (cancelled, or LIMIT satisfied
// after cancelling upstream) defer it, so batches still in flight return
// their ledger charge and every upstream goroutine has exited by the time
// the operator closes its own output.
func discard(in BatchStream) {
	for b := range in {
		putBatch(b)
	}
}

// decodeRow decodes physical row r of b into a binding, provenance
// included: IDs become terms only at the pipeline's decode boundaries.
func decodeRow(env *Env, b *Batch, r int32) rdf.Binding {
	bind := make(rdf.Binding, len(b.vars))
	for c, v := range b.vars {
		if id := b.cols[c][r]; id != rdf.NoTerm {
			bind[v] = env.dict.Decode(id)
		}
	}
	if b.prov != nil {
		for _, src := range b.prov[r] {
			t := env.dict.Decode(src)
			bind[rdf.ProvKey(t.Value)] = t
		}
	}
	return bind
}

// encodeRows interns rows into batches over vars (an absent variable is
// NoTerm) and sends them; it reports whether every batch was delivered.
func encodeRows(ctx context.Context, env *Env, out chan<- *Batch, vars []string, rows []rdf.Binding) bool {
	var b *Batch
	for _, row := range rows {
		if b == nil {
			b = env.getBatch(vars, env.Prov != nil)
		}
		for c, v := range vars {
			var id rdf.TermID
			if t, ok := row[v]; ok {
				id = env.dict.Intern(t)
			}
			b.cols[c] = append(b.cols[c], id)
		}
		if b.prov != nil {
			b.prov = append(b.prov, row.SourceIDs(env.dict))
		}
		if b.n++; b.n == batchCap {
			if !sendBatch(ctx, out, b) {
				return false
			}
			b = nil
		}
	}
	return b == nil || sendBatch(ctx, out, b)
}

// batchesToRows decodes a batch stream back into bindings at the pipeline
// boundary (Eval): IDs become terms only here, after every operator has run
// on integers.
func batchesToRows(ctx context.Context, env *Env, in BatchStream) Stream {
	out := make(chan rdf.Binding, chanCap)
	go func() {
		defer close(out)
		defer discard(in)
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return
				}
				for li := 0; li < b.Len(); li++ {
					select {
					case out <- decodeRow(env, b, b.Row(li)):
					case <-ctx.Done():
						putBatch(b)
						return
					}
				}
				putBatch(b)
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
