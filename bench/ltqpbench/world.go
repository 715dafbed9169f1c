package main

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"time"

	"ltqp"
	"ltqp/internal/baseline"
	"ltqp/internal/rdf"
	"ltqp/internal/serve"
	"ltqp/internal/simenv"
	"ltqp/internal/solid"
	"ltqp/internal/solidbench"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// mode is how a workload reaches its data.
type mode int

const (
	// modeFresh traverses with a new engine and no cache for every query.
	modeFresh mode = iota
	// modeWarm traverses on one engine over a pre-filled shared cache.
	modeWarm
	// modeClosed evaluates over the pre-built centralized store.
	modeClosed
)

// workload is one traffic mix. Every workload is a closed loop: a client
// submits its next query only when the previous one has completed.
type workload struct {
	Name    string
	Why     string
	Queries []string
	Clients int
	Latency time.Duration
	Mode    mode
	// Tails are the tail percentiles to try, highest first; the sample
	// decides which one it supports.
	Tails []float64
}

var singlePod = []string{
	"Discover 1.1", "Discover 1.2", "Discover 1.3", "Discover 1.4",
	"Discover 2.1", "Discover 2.2", "Discover 2.3", "Discover 2.4",
	"Discover 3.1", "Discover 3.2", "Discover 3.3", "Discover 3.4",
	"Discover 4.1", "Discover 4.2", "Discover 4.3", "Discover 4.4",
	"Discover 5.1", "Discover 5.2", "Discover 5.3", "Discover 5.4",
	"Short 1", "Short 4",
}

// Short 5 (ASK) is left out everywhere: it stops early, so the documents it
// reads vary from run to run.
var workloads = []*workload{
	{
		Name:    "discover_cold",
		Why:     "one user, one single-pod query, fresh engine, nothing cached: deref, turtle, intern, store insert and extract do the work",
		Queries: singlePod, Clients: 1, Mode: modeFresh, Tails: []float64{95, 90, 75},
	},
	{
		Name:    "discover_warm",
		Why:     "same queries, 2 clients, one engine over a pre-filled shared cache: network and parsing bypassed, re-ingest and exec remain",
		Queries: singlePod, Clients: 2, Mode: modeWarm, Tails: []float64{95, 90, 75},
	},
	{
		Name: "multipod_latency",
		Why:  "multi-pod queries walking all 1469 documents at 2 ms pod latency: wait-bound, moved by queue order, scheduling and connection reuse",
		Queries: []string{"Discover 6.1", "Discover 7.1", "Discover 8.1", "Discover 8.2",
			"Discover 8.3", "Discover 8.4", "Short 2", "Short 3"},
		Clients: 1, Latency: 2 * time.Millisecond, Mode: modeFresh, Tails: []float64{75},
	},
	{
		Name: "complex_exec",
		Why:  "no traversal: parse, plan, exec and serialize over the complete pre-built store, including every operator still bridged to rows",
		Queries: []string{"Complex 1", "Complex 2", "Complex 3", "Discover 3.1", "Discover 4.1",
			"Discover 8.1", "Discover 1.1", "Discover 2.1"},
		Clients: 1, Mode: modeClosed, Tails: []float64{95, 90, 75},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// datasetConfig is the simulated environment every workload runs against:
// 12 pods, 1469 documents, about 29.6k triples. The generator seed is fixed:
// across generator seeds the triples a query touches differ by 8% between
// quartiles, which is wider than the bound of every count metric. --seed
// drives the order of queries instead.
func datasetConfig(small bool) solidbench.Config {
	if small {
		return solidbench.SmallConfig()
	}
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	return cfg
}

// query is one query of a mix with its oracle answer.
type query struct {
	Name string
	Text string
	vars []string
	// ordered queries (ORDER BY, no LIMIT) must return the oracle's sequence.
	ordered bool
	rows    int
	want    []string         // oracle keys, in oracle order
	ids     map[string]int32 // key -> index into counts
	// counts is the multiset the rows must come from: the oracle's answer,
	// or for a LIMIT query the answer without the LIMIT.
	counts []int32
}

// checker verifies answers; scratch is reused across queries of one client.
type checker struct{ scratch []int32 }

// ok reports whether rows is the oracle's answer for q.
func (c *checker) ok(q *query, rows []rdf.Binding) bool {
	if len(rows) != q.rows {
		return false
	}
	if q.ordered {
		for i, b := range rows {
			if b.Key(q.vars) != q.want[i] {
				return false
			}
		}
		return true
	}
	if cap(c.scratch) < len(q.counts) {
		c.scratch = make([]int32, len(q.counts))
	}
	seen := c.scratch[:len(q.counts)]
	for i := range seen {
		seen[i] = 0
	}
	for _, b := range rows {
		id, known := q.ids[b.Key(q.vars)]
		if !known {
			return false
		}
		seen[id]++
		if seen[id] > q.counts[id] {
			return false
		}
	}
	// Equal length and no key over its count: the multisets are equal
	// (for limited queries: a sub-multiset of the unlimited answer).
	return true
}

// world is a set-up workload: the environment, the queries with their
// oracle answers, and whatever the mode pre-builds.
type world struct {
	w       *workload
	env     *simenv.Env
	queries []*query
	central *store.Store
	cache   *serve.SharedCache
	engine  *ltqp.Engine
}

func (wd *world) close() { wd.env.Close() }

// freshEngine is the engine a modeFresh query runs on. Observability
// (Trace, Obs, Explain, Events) stays off.
func (wd *world) freshEngine() *ltqp.Engine {
	return ltqp.New(ltqp.Config{Client: wd.env.Client(), Lenient: true})
}

// scopedCentralStore is baseline.CentralizedStore with blank nodes scoped to
// their document, as dereferencing scopes them. The baseline's own store
// merges equal labels from different documents (every pod's likes use
// _:like1, _:like2, ...), which over-joins Discover 8.
func scopedCentralStore(pods []*solid.Pod) *store.Store {
	st := store.New()
	doc := 0
	scope := func(t rdf.Term, doc int) rdf.Term {
		if t.Kind == rdf.TermBlank {
			return rdf.NewBlank(fmt.Sprintf("d%d.%s", doc, t.Value))
		}
		return t
	}
	for _, p := range pods {
		for path, d := range p.Materialize() {
			doc++
			ts := d.Graph.Triples()
			scoped := make([]rdf.Triple, len(ts))
			for i, t := range ts {
				scoped[i] = rdf.NewTriple(scope(t.S, doc), t.P, scope(t.O, doc))
			}
			st.AddDocument(p.IRI(path), scoped)
		}
	}
	st.Close()
	return st
}

var trailingLimit = regexp.MustCompile(`(?i)\s+LIMIT\s+\d+\s*$`)

// newQuery computes q's oracle answer over the centralized store.
func newQuery(ctx context.Context, central *store.Store, name, text string) (*query, error) {
	parsed, err := sparql.ParseQuery(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	q := &query{
		Name: name, Text: text, vars: parsed.ProjectedVars(),
		ordered: len(parsed.OrderBy) > 0 && parsed.Limit < 0,
		ids:     map[string]int32{},
	}
	answer, err := baseline.RunQuery(ctx, central, text)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", name, err)
	}
	if len(answer) == 0 {
		return nil, fmt.Errorf("%s: oracle answer is empty, time to first result is undefined", name)
	}
	q.rows = len(answer)
	for _, b := range answer {
		q.want = append(q.want, b.Key(q.vars))
	}
	superset := answer
	if parsed.Limit >= 0 {
		unlimited := trailingLimit.ReplaceAllString(text, "")
		if unlimited == text {
			return nil, fmt.Errorf("%s: cannot strip LIMIT", name)
		}
		if superset, err = baseline.RunQuery(ctx, central, unlimited); err != nil {
			return nil, fmt.Errorf("%s: oracle without LIMIT: %w", name, err)
		}
	}
	for _, b := range superset {
		k := b.Key(q.vars)
		id, known := q.ids[k]
		if !known {
			id = int32(len(q.counts))
			q.ids[k] = id
			q.counts = append(q.counts, 0)
		}
		q.counts[id]++
	}
	return q, nil
}

// catalogQuery finds a catalog or complex query by name or by the part of
// its name before the colon ("Short 1").
func catalogQuery(ds *solidbench.Dataset, name string) (solidbench.Query, bool) {
	for _, q := range append(ds.Catalog(), ds.ComplexQueries()...) {
		if q.Name == name || strings.HasPrefix(q.Name, name+":") {
			return q, true
		}
	}
	return solidbench.Query{}, false
}

// setUp builds everything a workload needs before its first measured query:
// dataset, pod server, oracle answers, and the warm cache or the centralized
// store where the mode uses one.
func setUp(ctx context.Context, w *workload, small bool) (wd *world, err error) {
	env := simenv.New(datasetConfig(small))
	defer func() {
		if err != nil {
			env.Close()
		}
	}()
	wd = &world{w: w, env: env}
	wd.central = scopedCentralStore(env.Pods)
	for _, name := range w.Queries {
		cq, ok := catalogQuery(env.Dataset, name)
		if !ok {
			return nil, fmt.Errorf("no catalog query %q", name)
		}
		q, err := newQuery(ctx, wd.central, name, cq.Text)
		if err != nil {
			return nil, err
		}
		wd.queries = append(wd.queries, q)
	}
	if w.Mode == modeWarm {
		// The window must outlive no entry: a stale entry revalidates
		// against the origin.
		wd.cache = serve.NewSharedCache(serve.SharedCacheOptions{TTL: time.Hour})
		wd.engine = ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, SharedCache: wd.cache})
		c := &client{}
		for _, q := range wd.queries {
			if !runTraversal(ctx, wd.engine, q, c).ok {
				return nil, fmt.Errorf("%s: wrong answer while filling the cache", q.Name)
			}
		}
	}
	env.PodServer.Latency = w.Latency
	return wd, nil
}
