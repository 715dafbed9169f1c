package exec

import (
	"context"
	"slices"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/sparql"
)

// GROUP BY on ID columns. Grouping is blocking (a group over a
// still-growing source would be retractable), so the work happens after the
// drain: rows stay dictionary-encoded in a columnar arena, group keys hash
// over TermIDs in one idTable pass, and only aggregate inputs and results
// become terms. Groups come out in first-seen order, as groupRows emits
// them, and every aggregate reads its group's rows in input order, which
// SAMPLE and GROUP_CONCAT depend on.

// batchGroup drains the input into a columnar arena and aggregates it group
// by group; only group keys and aggregate results become terms, encoded
// back into batches over the group's variables.
func batchGroup(ctx context.Context, g algebra.Group, env *Env) BatchStream {
	out := make(chan *Batch, batchChanCap)
	in := EvalBatch(ctx, g.Input, env)

	arenaVars := slices.Clone(g.By)
	colOf := func(v string) int {
		if i := slices.Index(arenaVars, v); i >= 0 {
			return i
		}
		arenaVars = append(arenaVars, v)
		return len(arenaVars) - 1
	}
	items := make([]aggItem, len(g.Items))
	itemVars := make([]string, len(g.Items))
	for i, item := range g.Items {
		call := item.Expr.(sparql.ExprCall)
		items[i] = aggItem{col: -1, call: call}
		itemVars[i] = item.Var
		if !call.Star {
			items[i].col = colOf(call.Args[0].(sparql.ExprVar).Name)
		} else if call.Distinct {
			// COUNT(DISTINCT *) keys the whole input row.
			for _, v := range g.Input.Vars() {
				colOf(v)
			}
		}
	}
	// The output row's column of each group key and each aggregate.
	outVars := g.Vars()
	keyOut, itemOut := schemaMap(outVars, g.By), schemaMap(outVars, itemVars)

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
			prov = appendLive(cols, prov, withProv, b, cmap, 0, b.Len())
			n += b.Len()
			putBatch(b)
		}
		if ctx.Err() != nil {
			return
		}

		// The drained arena plus each row's group slot and its place in the
		// group-ordered row list are retained until the groups are emitted;
		// charge them now and release when the operator finishes.
		if env.Ledger != nil && n > 0 {
			arenaBytes := int64(n) * (int64(len(arenaVars))*termIDBytes + 8)
			if withProv {
				arenaBytes += int64(n) * provRefBytes
			}
			env.Ledger.Charge(resource.Exec, arenaBytes)
			defer env.Ledger.Release(resource.Exec, arenaBytes)
		}

		// Phase 2: number the groups in first-seen order with one idTable
		// pass, then lay the rows out group by group (a stable counting
		// sort): group g's rows are order[at[g]:at[g+1]], in input order.
		var groups idTable
		slot := make([]int32, n)
		var first []int32 // each group's first row
		key := make([]rdf.TermID, len(g.By))
		for r := range slot {
			for k := range key {
				key[k] = cols[k][r]
			}
			s, fresh := groups.slot(key)
			if fresh {
				first = append(first, int32(r))
			}
			slot[r] = s
		}
		// An aggregate query without GROUP BY has one group even over an
		// empty input (COUNT() = 0 etc.), as in groupRows.
		if n == 0 && len(g.By) == 0 {
			first = append(first, -1)
		}
		at := make([]int32, len(first)+1)
		for _, s := range slot {
			at[s+1]++
		}
		for gi := range first {
			at[gi+1] += at[gi]
		}
		order := make([]int32, n)
		fill := slices.Clone(at[:len(first)])
		for r, s := range slot {
			order[fill[s]] = int32(r)
			fill[s]++
		}

		// Phase 3: aggregate each group into one ID row over outVars — key
		// IDs copied from the arena, aggregate results interned — and send
		// the rows in batches. An aggregate reads the group's bound values
		// of its argument (the distinct ones under DISTINCT) in input order;
		// COUNT counts their IDs, the others fold the terms.
		row := make([]rdf.TermID, len(outVars))
		var whole []rdf.TermID
		var values []rdf.Term
		seen := map[rdf.TermID]bool{}
		var rowSet idTable
		var b *Batch
		for gi, fr := range first {
			rows := order[at[gi]:at[gi+1]]
			clear(row)
			for c, o := range keyOut {
				row[o] = cols[c][fr]
			}
			var pv []rdf.TermID
			if withProv {
				// An aggregate row descends from every row of its group:
				// its provenance is the union of theirs.
				for _, r := range rows {
					pv = append(pv, prov[r]...)
				}
				slices.Sort(pv)
				pv = slices.Compact(pv)
			}
			for ii, ai := range items {
				var v rdf.Term
				switch {
				case ai.call.Star && ai.call.Distinct:
					// The arena holds every input column: count distinct rows.
					rowSet.reset()
					for _, r := range rows {
						whole = whole[:0]
						for c := range cols {
							whole = append(whole, cols[c][r])
						}
						rowSet.slot(whole)
					}
					v = rdf.Integer(int64(rowSet.n))
				case ai.call.Star:
					v = rdf.Integer(int64(len(rows)))
				default:
					values = values[:0]
					clear(seen)
					n := 0
					for _, r := range rows {
						id := cols[ai.col][r]
						if id == rdf.NoTerm || ai.call.Distinct && seen[id] {
							continue
						}
						if n++; ai.call.Distinct {
							seen[id] = true
						}
						if ai.call.Func != "COUNT" {
							values = append(values, env.dict.Decode(id))
						}
					}
					var err error
					if ai.call.Func == "COUNT" {
						v = rdf.Integer(int64(n))
					} else if v, err = aggCompute(ai.call, values); err != nil {
						continue
					}
				}
				row[itemOut[ii]] = env.dict.Intern(v)
			}
			if b == nil {
				b = env.getBatch(outVars, withProv)
			}
			if b.appendRow(row, pv); b.n == batchCap {
				if !sendBatch(ctx, out, b) {
					return
				}
				b = nil
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
