package ltqp_test

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/baseline"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

// TestEnginesWithDistinctDictionariesShareOneCache pins the dictionary rule
// of document segments: a segment's ID triples mean something only under
// the dictionary of the engine that fetched the document. Two engines (two
// dictionaries) over one shared cache each serve documents the other one
// fetched; the consumer must notice the foreign dictionary and ingest the
// parsed triples instead — using the IDs as they are would scramble terms.
// Every answer, on either engine and in either order, is the centralized
// oracle's multiset.
func TestEnginesWithDistinctDictionariesShareOneCache(t *testing.T) {
	env := simenv.New(solidbench.SmallConfig())
	defer env.Close()
	oracle := baseline.CentralizedStore(env.Pods)
	cache := ltqp.NewSharedCache(ltqp.SharedCacheOptions{TTL: time.Hour})
	newEngine := func() *ltqp.Engine {
		return ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, SharedCache: cache})
	}
	a, b := newEngine(), newEngine()
	// Give b's dictionary a different ID assignment from a's before either
	// sees a shared document.
	if _, err := b.Select(context.Background(), env.Dataset.Discover(5, 2).Text); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	canon := func(vars []string, rows []ltqp.Binding) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.Key(vars)
		}
		sort.Strings(out)
		return out
	}
	for _, q := range []solidbench.Query{env.Dataset.Discover(1, 1), env.Dataset.Discover(3, 1), env.Dataset.Discover(8, 2)} {
		want, err := baseline.RunQuery(ctx, oracle, q.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name   string
			engine *ltqp.Engine
		}{{"a fetches", a}, {"b hits a's segments", b}, {"a hits its own", a}} {
			res, err := run.engine.Query(ctx, q.Text)
			if err != nil {
				t.Fatal(err)
			}
			var rows []ltqp.Binding
			for r := range res.Results {
				rows = append(rows, r)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			got, wantRows := canon(res.Vars, rows), canon(res.Vars, want)
			if strings.Join(got, "\n") != strings.Join(wantRows, "\n") {
				t.Errorf("%s, %s: %d rows differ from the oracle's %d", q.Name, run.name, len(got), len(wantRows))
			}
			if st := res.Stats(); run.engine == b && st.CacheHits == 0 {
				t.Errorf("%s, %s: no cache hits of %d requests, the foreign-dictionary path did not run", q.Name, run.name, st.Requests)
			}
		}
	}
}
