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
// arena, group keys hash over TermIDs in one idTable pass, and only group
// keys and aggregate results become terms. Groups come out in first-seen
// order, as groupRows emits them.

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
			// SAMPLE and GROUP_CONCAT depend on encounter order. Leaving
			// them to groupRows, which Reference shares, keeps one
			// implementation of that order.
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

// batchGroup drains the input into a columnar arena and aggregates it group
// by group; only group keys and aggregate results become terms, encoded
// back into batches over the group's variables.
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
		key := make([]rdf.TermID, len(keyVars))
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
		// the rows in batches.
		row := make([]rdf.TermID, len(outVars))
		var values []rdf.Term
		var seen map[rdf.TermID]bool
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
				if ai.call.Func == "COUNT" {
					row[itemOut[ii]] = env.dict.Intern(countAgg(ai, cols, rows, &seen))
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
				for _, r := range rows {
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
					row[itemOut[ii]] = env.dict.Intern(v)
				}
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
