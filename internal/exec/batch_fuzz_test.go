package exec

import (
	"context"
	"math/rand"
	"testing"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// FuzzBatchSelection drives fuzzer-shaped batches through the vectorized
// operators: the fuzzer controls the row count, the cell contents, the
// selection vector (empty, full, single-row, sparse, out-of-order — raw
// bytes, deduplicated to keep the at-most-once invariant), and which
// operator runs. Every execution is checked against Reference on the
// flattened input, so the target is a differential oracle, not just a crash
// hunt.
func FuzzBatchSelection(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{}, uint8(0))             // empty batch
	f.Add(int64(2), uint16(1), []byte{0}, uint8(1))            // single row
	f.Add(int64(3), uint16(40), []byte{}, uint8(2))            // empty selection
	f.Add(int64(4), uint16(40), []byte{5, 2, 9, 30}, uint8(3)) // out of order
	f.Add(int64(5), uint16(300), []byte{1, 1, 7, 200, 200, 13}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, selBytes []byte, opSel uint8) {
		n := int(nRaw) % (batchCap + 1)
		rig := newPropRig(seed)
		r := rand.New(rand.NewSource(seed))

		schema := []string{"a", "b", "c"}
		b := getBatch(schema, false)
		for c := range b.cols {
			col := b.cols[c]
			for i := 0; i < n; i++ {
				if r.Intn(5) == 0 {
					col = append(col, rdf.NoTerm)
				} else {
					col = append(col, rig.pool[r.Intn(len(rig.pool))])
				}
			}
			b.cols[c] = col
		}
		b.n = n
		if len(selBytes) > 0 || n == 0 {
			// Raw fuzzer bytes become the selection vector: arbitrary order,
			// arbitrary sparsity, duplicates dropped (a physical row is live
			// at most once).
			sel := b.selSlab()
			seen := make(map[int32]bool, len(selBytes))
			for _, raw := range selBytes {
				if n == 0 {
					break
				}
				idx := int32(int(raw) % n)
				if !seen[idx] {
					seen[idx] = true
					sel = append(sel, idx)
				}
			}
			b.sel = sel
		}

		ctx := context.Background()
		input := []*Batch{b}
		rows := rig.flatten(input)
		values := algebra.Values{Variables: schema, Rows: rows}

		var want, got []string
		switch opSel % 4 {
		case 0: // FILTER
			expr := sparql.ExprCall{Func: "CONTAINS", Args: []sparql.Expression{
				sparql.ExprCall{Func: "STR", Args: []sparql.Expression{sparql.ExprVar{Name: "a"}}},
				sparql.ExprTerm{Term: rdf.NewLiteral("e")},
			}}
			want = canon(schema, Reference(algebra.Filter{Input: values, Expr: expr}, rig.env))
			got = canon(schema, collect(batchesToRows(ctx, rig.env,
				batchFilter(ctx, rig.env, expr, streamOf(input)))))
		case 1: // BIND
			expr := sparql.ExprCall{Func: "STRLEN", Args: []sparql.Expression{
				sparql.ExprCall{Func: "STR", Args: []sparql.Expression{sparql.ExprVar{Name: "b"}}}}}
			ext := append(append([]string{}, schema...), "z")
			want = canon(ext, Reference(algebra.Extend{Input: values, Var: "z", Expr: expr}, rig.env))
			got = canon(ext, collect(batchesToRows(ctx, rig.env,
				batchExtend(ctx, rig.env, "z", expr, streamOf(input)))))
		case 2: // DISTINCT
			want = canon(schema, Reference(algebra.Distinct{Input: values}, rig.env))
			got = canon(schema, collect(batchesToRows(ctx, rig.env,
				batchDedup(ctx, rig.env, schema, true, streamOf(input)))))
		default: // self-JOIN (all variables shared)
			join := algebra.Join{Left: values, Right: values}
			want = canon(schema, Reference(join, rig.env))
			got = canon(schema, collect(batchesToRows(ctx, rig.env,
				batchJoin(ctx, rig.env, join.Vars(), algebra.SharedVars(values, values), nil, false,
					streamOf(input), streamOf(input)))))
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: %d solutions, reference %d", opSel%4, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d: solution %d differs\ngot:  %s\nwant: %s", opSel%4, i, got[i], want[i])
			}
		}
		putBatch(b)
	})
}
