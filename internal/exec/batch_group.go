package exec

import (
	"context"
	"slices"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

// Vectorized GROUP BY. Grouping is blocking either way (a group over a
// still-growing source would be retractable), so the win here is what
// happens after the drain: rows stay dictionary-encoded in a columnar
// arena, group keys hash over TermIDs, and the per-partition aggregation
// runs morsel-parallel — workers own disjoint hash partitions, so no group
// is ever touched by two workers and same-input runs produce the same
// groups regardless of worker count.

// groupParts is the fixed partition count. It is independent of the worker
// count on purpose: the row→partition mapping, and hence each partition's
// group set, never changes when the pool is resized.
const groupParts = 64

// vectorizableGroup reports whether a Group can run on the columnar path:
// variable-only keys, no HAVING, and aggregates that are order-insensitive
// folds of a plain variable (or COUNT(*)). Everything else runs groupRows
// in batchMaterialize.
func vectorizableGroup(g algebra.Group) bool {
	if len(g.Having) > 0 {
		return false
	}
	for _, c := range g.By {
		if c.Expr != nil || c.Var == "" {
			return false
		}
	}
	for _, item := range g.Items {
		if item.Expr == nil {
			continue
		}
		call, ok := item.Expr.(sparql.ExprCall)
		if !ok || !call.IsAggregate() {
			return false
		}
		switch call.Func {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
		default:
			// SAMPLE and GROUP_CONCAT depend on encounter order, which the
			// parallel path does not preserve.
			return false
		}
		if call.Star {
			if call.Distinct {
				return false // COUNT(DISTINCT *) keys whole rows
			}
			continue
		}
		if len(call.Args) != 1 {
			return false
		}
		if _, ok := call.Args[0].(sparql.ExprVar); !ok {
			return false
		}
	}
	return true
}

// hashIDKey mixes an idKey into a partition index.
func hashIDKey(k idKey) uint64 {
	h := k.packed*0x9E3779B97F4A7C15 + 0x85EBCA6B
	h ^= h >> 33
	for i := 0; i < len(k.rest); i++ {
		h = h*1099511628211 ^ uint64(k.rest[i])
	}
	h ^= h >> 29
	return h
}

// batchGroup drains the input into a columnar arena and aggregates it
// partition-parallel; only group keys and aggregate results become terms,
// encoded back into batches over the group's variables.
func batchGroup(ctx context.Context, g algebra.Group, env *Env) BatchStream {
	out := make(chan *Batch, batchChanCap)
	in := EvalBatch(ctx, g.Input, env)

	keyVars := make([]string, len(g.By))
	for i, c := range g.By {
		keyVars[i] = c.Var
	}
	arenaVars := append([]string{}, keyVars...)
	colOf := func(v string) int {
		for i, w := range arenaVars {
			if w == v {
				return i
			}
		}
		arenaVars = append(arenaVars, v)
		return len(arenaVars) - 1
	}
	items := make([]aggItem, 0, len(g.Items))
	for _, item := range g.Items {
		if item.Expr == nil {
			continue
		}
		call := item.Expr.(sparql.ExprCall)
		ai := aggItem{col: -1, call: call}
		if !call.Star {
			ai.col = colOf(call.Args[0].(sparql.ExprVar).Name)
		}
		items = append(items, ai)
	}
	itemVars := make([]string, 0, len(items))
	for _, item := range g.Items {
		if item.Expr != nil {
			itemVars = append(itemVars, item.Var)
		}
	}
	// The output row's column of each group key and each aggregate.
	outVars := g.Vars()
	keyOut, itemOut := schemaMap(outVars, keyVars), schemaMap(outVars, itemVars)

	go func() {
		defer close(out)
		withProv := env.Prov != nil

		// Phase 1: drain the input into the arena.
		cols := make([][]rdf.TermID, len(arenaVars))
		var prov [][]rdf.TermID
		var cmap []int
		var forVars []string
		n := 0
		for b := range in {
			if ctx.Err() != nil {
				putBatch(b)
				continue
			}
			if !sameVars(forVars, b.vars) {
				forVars = b.vars
				cmap = schemaMap(b.vars, arenaVars)
			}
			for i := 0; i < b.Len(); i++ {
				r := b.Row(i)
				for c, j := range cmap {
					if j >= 0 {
						cols[c] = append(cols[c], b.cols[j][r])
					} else {
						cols[c] = append(cols[c], rdf.NoTerm)
					}
				}
				if withProv {
					if b.prov != nil {
						prov = append(prov, b.prov[r])
					} else {
						prov = append(prov, nil)
					}
				}
				n++
			}
			putBatch(b)
		}
		if ctx.Err() != nil {
			return
		}

		// The drained arena plus the per-row key/partition slabs of phase 2
		// are retained until the groups are emitted; charge them now and
		// release when the operator finishes. ~20 bytes covers the idKey,
		// partition byte and posting per row.
		if env.Ledger != nil && n > 0 {
			arenaBytes := int64(n) * (int64(len(arenaVars))*termIDBytes + 20)
			if withProv {
				arenaBytes += int64(n) * provRefBytes
			}
			env.Ledger.Charge(resource.Exec, arenaBytes)
			defer env.Ledger.Release(resource.Exec, arenaBytes)
		}

		// Phase 2: key and partition every row, morsel-parallel.
		keys := make([]idKey, n)
		parts := make([]uint8, n)
		runMorsels(env, n, func(_, lo, hi int) {
			ids := make([]rdf.TermID, len(keyVars))
			for i := lo; i < hi; i++ {
				for k := range keyVars {
					ids[k] = cols[k][i]
				}
				keys[i] = idKeyOf(ids)
				parts[i] = uint8(hashIDKey(keys[i]) % groupParts)
			}
		})
		byPart := make([][]int32, groupParts)
		for i := 0; i < n; i++ {
			byPart[parts[i]] = append(byPart[parts[i]], int32(i))
		}

		// Phase 3: aggregate, one worker per disjoint partition set. Each
		// group becomes one ID row over outVars: key IDs copied from the
		// arena, aggregate results interned.
		type grp struct {
			first int32
			rows  []int32
		}
		type partResult struct {
			order  []idKey
			groups map[idKey]*grp
			ids    []rdf.TermID // one row of len(outVars) IDs per group
			prov   [][]rdf.TermID
		}
		results := make([]partResult, groupParts, groupParts+1)
		aggregatePart := func(p int) {
			rows := byPart[p]
			if len(rows) == 0 {
				return
			}
			pr := &results[p]
			pr.groups = map[idKey]*grp{}
			for _, r := range rows {
				k := keys[r]
				gr, ok := pr.groups[k]
				if !ok {
					gr = &grp{first: r}
					pr.groups[k] = gr
					pr.order = append(pr.order, k)
				}
				gr.rows = append(gr.rows, r)
			}
			var values []rdf.Term
			var seen map[rdf.TermID]bool
			for _, k := range pr.order {
				gr := pr.groups[k]
				row := len(pr.ids)
				for range outVars {
					pr.ids = append(pr.ids, rdf.NoTerm)
				}
				ids := pr.ids[row:]
				for c, o := range keyOut {
					ids[o] = cols[c][gr.first]
				}
				if withProv {
					// An aggregate row descends from every row of its
					// group: its provenance is the union of theirs.
					var srcs []rdf.TermID
					for _, r := range gr.rows {
						srcs = append(srcs, prov[r]...)
					}
					slices.Sort(srcs)
					pr.prov = append(pr.prov, slices.Compact(srcs))
				}
				for ii, ai := range items {
					if ai.call.Func == "COUNT" {
						ids[itemOut[ii]] = env.dict.Intern(countAgg(ai, cols, gr.rows, &seen))
						continue
					}
					values = values[:0]
					if ai.call.Distinct {
						if seen == nil {
							seen = map[rdf.TermID]bool{}
						} else {
							clear(seen)
						}
					}
					for _, r := range gr.rows {
						id := cols[ai.col][r]
						if id == rdf.NoTerm {
							continue
						}
						if ai.call.Distinct {
							if seen[id] {
								continue
							}
							seen[id] = true
						}
						values = append(values, env.dict.Decode(id))
					}
					if v, err := aggCompute(ai.call, values); err == nil {
						ids[itemOut[ii]] = env.dict.Intern(v)
					}
				}
			}
		}
		workers := env.workerCount()
		if workers > groupParts {
			workers = groupParts
		}
		if n < morselMinRows {
			workers = 1
		}
		if workers <= 1 {
			for p := 0; p < groupParts; p++ {
				aggregatePart(p)
			}
		} else {
			done := make(chan struct{})
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for p := w; p < groupParts; p += workers {
						aggregatePart(p)
					}
				}(w)
			}
			for w := 0; w < workers; w++ {
				<-done
			}
		}

		// Implicit single group for aggregate queries without GROUP BY over
		// an empty input (COUNT() = 0 etc.), as in groupRows.
		if n == 0 && len(g.By) == 0 {
			ids := make([]rdf.TermID, len(outVars))
			for ii, ai := range items {
				if v, err := aggCompute(ai.call, nil); err == nil {
					ids[itemOut[ii]] = env.dict.Intern(v)
				}
			}
			results = append(results, partResult{order: []idKey{{}}, ids: ids, prov: make([][]rdf.TermID, 1)})
		}
		var b *Batch
		for _, pr := range results {
			for i := range pr.order {
				if b == nil {
					b = env.getBatch(outVars, withProv)
				}
				var pv []rdf.TermID
				if withProv {
					pv = pr.prov[i]
				}
				if b.appendRow(pr.ids[i*len(outVars):], pv); b.n == batchCap {
					if !sendBatch(ctx, out, b) {
						return
					}
					b = nil
				}
			}
		}
		if b != nil {
			sendBatch(ctx, out, b)
		}
	}()
	return out
}

// aggItem pairs an aggregate call with the arena column it reads (-1 for
// COUNT(*)).
type aggItem struct {
	col  int
	call sparql.ExprCall
}

// countAgg computes COUNT over a group without decoding a single term:
// COUNT(*) is the row count, COUNT(?v) the bound count, COUNT(DISTINCT ?v)
// the distinct bound count.
func countAgg(ai aggItem, cols [][]rdf.TermID, rows []int32, seen *map[rdf.TermID]bool) rdf.Term {
	if ai.call.Star {
		return rdf.Integer(int64(len(rows)))
	}
	n := 0
	if ai.call.Distinct {
		if *seen == nil {
			*seen = map[rdf.TermID]bool{}
		} else {
			clear(*seen)
		}
		for _, r := range rows {
			if id := cols[ai.col][r]; id != rdf.NoTerm && !(*seen)[id] {
				(*seen)[id] = true
				n++
			}
		}
		return rdf.Integer(int64(n))
	}
	for _, r := range rows {
		if cols[ai.col][r] != rdf.NoTerm {
			n++
		}
	}
	return rdf.Integer(int64(n))
}
