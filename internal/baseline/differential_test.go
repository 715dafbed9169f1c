package baseline

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/rdf"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
	"ltqp/internal/store"
)

// diffConfig is the environment the differential harness runs against:
// small enough that 50 traversal queries finish quickly, rich enough that
// every generated query shape has data to match.
func diffConfig() solidbench.Config {
	cfg := solidbench.SmallConfig()
	cfg.Persons = 4
	cfg.PostsPerPerson = 8
	cfg.PostDateBuckets = 4
	cfg.CommentsPerPerson = 6
	cfg.CommentDateBuckets = 3
	cfg.AlbumsPerPerson = 1
	cfg.LikesPerPerson = 4
	cfg.NoiseFilesPerPod = 1
	return cfg
}

// canonicalBindingRows renders a solution multiset canonically: one string
// per solution ("?v=<term>" pairs in projection order), the whole multiset
// sorted. Two engines agree iff the slices are equal.
func canonicalBindingRows(t *testing.T, vars []string, bindings []rdf.Binding) []string {
	t.Helper()
	rows := make([]string, 0, len(bindings))
	for _, b := range bindings {
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			term, ok := b[v]
			if !ok {
				parts = append(parts, "?"+v+"=UNDEF")
				continue
			}
			if term.Kind == rdf.TermBlank {
				// Blank labels are system-specific; a generated query that
				// binds one is a bug in the generator, not the engines.
				t.Fatalf("generated query bound blank node %s to ?%s", term, v)
			}
			parts = append(parts, "?"+v+"="+term.String())
		}
		rows = append(rows, strings.Join(parts, " "))
	}
	sort.Strings(rows)
	return rows
}

// TestDifferentialTraversalVsCentralized is the engine's differential test
// harness: ~50 deterministically generated SELECT queries (anchored star
// BGPs, OPTIONAL, FILTER, UNION, DISTINCT — the paper's demonstration query
// shapes — and every other operator the executor implements) each run
// through BOTH
//
//   - the live traversal engine (public ltqp API) over an in-process Solid
//     environment, seeded with every document so traversal reaches the
//     whole dataset, under one of four configurations (default, Explain,
//     ExecWorkers 1, both), and
//   - the centralized oracle: CentralizedStore + RunQuery over the same
//     pods,
//
// asserting the solution multisets are identical. This pins the traversal
// pipeline (dereference → parse → dictionary-interned store → symmetric
// hash joins) against the direct evaluation path end to end; any
// value-vs-identity bug, lost triple, or duplicated solution in either path
// shows up as a multiset diff.
func TestDifferentialTraversalVsCentralized(t *testing.T) {
	// The tier-1 run keeps a fast 50-query subset; `make differential`
	// sets LTQP_DIFF_QUERIES=150 for the full sweep over the widened
	// grammar (ORDER BY, GROUP BY/aggregates, MINUS, property paths).
	queries := 50
	if s := os.Getenv("LTQP_DIFF_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("invalid LTQP_DIFF_QUERIES=%q", s)
		}
		queries = n
	}

	env := simenv.New(diffConfig())
	defer env.Close()

	// The oracle: everything accumulated up front.
	oracle := CentralizedStore(env.Pods)

	// Seeds: every document of every pod, so the traversal store converges
	// to exactly the oracle's triple set.
	var seeds []string
	for _, p := range env.Pods {
		for path := range p.Materialize() {
			seeds = append(seeds, p.IRI(path))
		}
	}
	sort.Strings(seeds)

	// Query i runs on configuration i mod 4, so the options the executor
	// honours are each checked against the oracle without running any query
	// twice. All four engines share one document cache.
	cache := ltqp.NewSharedCache(ltqp.SharedCacheOptions{TTL: time.Hour})
	configs := []struct {
		name    string
		explain bool
		workers int
	}{{"default", false, 0}, {"explain", true, 0}, {"workers=1", false, 1}, {"explain+workers=1", true, 1}}
	engines := make([]*ltqp.Engine, len(configs))
	for i, c := range configs {
		engines[i] = ltqp.New(ltqp.Config{
			Client:      env.Client(),
			Lenient:     true, // vocabulary/tag IRIs in the environment 404
			SharedCache: cache,
			Explain:     c.explain,
			ExecWorkers: c.workers,
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	gen := newDiffGen(1, env.Dataset)
	totalRows := 0
	for i := 0; i < queries; i++ {
		query, unlimited := gen.Next()
		config := configs[i%len(configs)].name
		t.Run(fmt.Sprintf("q%02d", i), func(t *testing.T) {
			res, err := engines[i%len(engines)].QueryWithSeeds(ctx, query, seeds)
			if err != nil {
				t.Fatalf("traversal query failed (%s): %v\nquery:\n%s", config, err, query)
			}
			var live []rdf.Binding
			for b := range res.Results {
				live = append(live, b)
			}
			if err := res.Err(); err != nil {
				t.Fatalf("traversal failed (%s): %v\nquery:\n%s", config, err, query)
			}

			want, err := RunQuery(ctx, oracle, query)
			if err != nil {
				t.Fatalf("oracle query failed: %v\nquery:\n%s", err, query)
			}

			liveRows := canonicalBindingRows(t, res.Vars, live)
			wantRows := canonicalBindingRows(t, res.Vars, want)
			if len(liveRows) != len(wantRows) {
				t.Fatalf("traversal (%s) returned %d solutions, oracle %d\nquery:\n%s\ntraversal: %v\noracle: %v",
					config, len(liveRows), len(wantRows), query, sample(liveRows), sample(wantRows))
			}
			if unlimited != "" {
				// LIMIT/OFFSET may pick any rows: the answer must be a
				// sub-multiset of the unlimited oracle answer.
				all, err := RunQuery(ctx, oracle, unlimited)
				if err != nil {
					t.Fatalf("oracle query failed: %v\nquery:\n%s", err, unlimited)
				}
				left := map[string]int{}
				for _, row := range canonicalBindingRows(t, res.Vars, all) {
					left[row]++
				}
				for _, row := range liveRows {
					if left[row]--; left[row] < 0 {
						t.Fatalf("traversal (%s) solution not in the unlimited oracle answer (or too often)\nquery:\n%s\nsolution: %s",
							config, query, row)
					}
				}
				if m := orderedSlice.FindStringSubmatch(query); m != nil {
					checkOrderedSlice(ctx, t, oracle, config, query, unlimited, m, live)
				}
			} else {
				for j := range liveRows {
					if liveRows[j] != wantRows[j] {
						t.Fatalf("solution %d differs (%s)\nquery:\n%s\ntraversal: %s\noracle:    %s",
							j, config, query, liveRows[j], wantRows[j])
					}
				}
			}
			totalRows += len(liveRows)
		})
	}
	if totalRows == 0 {
		t.Fatal("differential suite produced zero solutions overall; generator is vacuous")
	}
	t.Logf("differential harness: %d queries, %d total solutions compared", queries, totalRows)
}

// orderedSlice matches the tail of a generated ORDER BY ... LIMIT [OFFSET]
// query: the sort variable, the limit and the optional offset.
var orderedSlice = regexp.MustCompile(`ORDER BY \?(\w+) LIMIT (\d+)(?: OFFSET (\d+))?$`)

// checkOrderedSlice requires the live answer of an ordered slice to carry,
// position by position, the sort key of rows [offset, offset+limit) of the
// oracle's ordered answer. Rows tied on the key may be swapped; rows out
// of order, or taken from the wrong part of the order, fail.
func checkOrderedSlice(ctx context.Context, t *testing.T, oracle *store.Store, config, query, unlimited string, m []string, live []rdf.Binding) {
	t.Helper()
	key := m[1]
	limit, _ := strconv.Atoi(m[2])
	offset, _ := strconv.Atoi(m[3]) // "" (no OFFSET) reads as 0
	ordered, err := RunQuery(ctx, oracle, unlimited+" ORDER BY ?"+key)
	if err != nil {
		t.Fatalf("oracle query failed: %v\nquery:\n%s", err, unlimited)
	}
	want := ordered[min(offset, len(ordered)):min(offset+limit, len(ordered))]
	keyOf := func(b rdf.Binding) string {
		if v, ok := b[key]; ok {
			return v.String()
		}
		return "UNDEF"
	}
	for j := range live {
		if got, exp := keyOf(live[j]), keyOf(want[j]); got != exp {
			t.Fatalf("traversal (%s) row %d has ?%s=%s, ordered oracle row %d has %s\nquery:\n%s",
				config, j, key, got, offset+j, exp, query)
		}
	}
}

// sample truncates a row list for error messages.
func sample(rows []string) []string {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}
