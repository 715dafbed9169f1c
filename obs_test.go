package ltqp

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ltqp/internal/obs"
)

// waitZero polls a gauge until it reaches zero (traversal teardown — where
// abandoned queue links are subtracted — can trail the results channel
// closing by a moment).
func waitZero(t *testing.T, name string, g *obs.Gauge) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() != 0 {
		if time.Now().After(deadline) {
			t.Errorf("%s = %d, want 0", name, g.Value())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainAll runs a query to completion and returns its result count.
func drainAll(t *testing.T, engine *Engine, query string) (*Result, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res.Results {
		n++
	}
	return res, n
}

// TestObserverMetricsMatchRecorder is the core consistency contract of the
// observability subsystem: the process-level registry's counters and the
// ltqp_deref_duration_seconds histogram must agree with the per-query
// recorder (the source of --stats and the waterfall).
func TestObserverMetricsMatchRecorder(t *testing.T) {
	env := testEnv(t)
	observer := NewObserver()
	engine := New(Config{Client: env.Client(), Lenient: true, Obs: observer,
		SharedCache: NewSharedCache(SharedCacheOptions{})})
	q := env.Dataset.Discover(1, 1)

	res1, n1 := drainAll(t, engine, q.Text)
	s1 := res1.Stats()
	res2, n2 := drainAll(t, engine, q.Text)
	s2 := res2.Stats()

	m := observer.Metrics
	if got := m.QueriesStarted.Value(); got != 2 {
		t.Errorf("queries_total = %d, want 2", got)
	}
	if got := m.QueriesSucceeded.Value(); got != 2 {
		t.Errorf("queries_succeeded_total = %d, want 2", got)
	}
	if got := m.QueriesInFlight.Value(); got != 0 {
		t.Errorf("queries_in_flight = %d, want 0", got)
	}
	if got := m.ResultsEmitted.Value(); got != int64(n1+n2) {
		t.Errorf("results_total = %d, want %d", got, n1+n2)
	}

	// The dereference histogram's count equals the successful requests
	// (network + cache) both runs saw — the "--stats document count".
	wantDocs := int64((s1.Requests - s1.Failed) + (s2.Requests - s2.Failed))
	if got := m.DerefDuration.Count(); got != wantDocs {
		t.Errorf("deref_duration_seconds count = %d, want %d", got, wantDocs)
	}

	// Run 2 was served from the document cache.
	if s2.CacheHits == 0 {
		t.Error("second run should have per-run cache hits in Stats")
	}
	if sc, enabled := engine.SharedCacheStats(); !enabled || sc.Hits == 0 {
		t.Errorf("shared cache stats = %+v enabled=%t", sc, enabled)
	}
	if got := m.CacheHits.Value(); got != int64(s1.CacheHits+s2.CacheHits) {
		t.Errorf("cache_hits_total = %d, want %d", got, s1.CacheHits+s2.CacheHits)
	}
	if m.DocumentsFetched.Value() == 0 || m.TriplesParsed.Value() == 0 {
		t.Error("documents/triples counters not incremented")
	}
	waitZero(t, "link_queue_depth", m.LinkQueueDepth)
	if m.LinksQueued.Value() == 0 {
		t.Error("links_queued_total not incremented")
	}

	// Prometheus exposition carries the required families.
	var b strings.Builder
	if err := observer.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"ltqp_queries_total 2",
		"ltqp_documents_fetched_total",
		"ltqp_cache_hits_total",
		fmt.Sprintf("ltqp_deref_duration_seconds_count %d", wantDocs),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A third run, on an engine with a per-origin document budget the
	// traversal outgrows, trips it. The trip counter and the result counter
	// fold the same events as the queries' recorders.
	limited := New(Config{Client: env.Client(), Lenient: true, Obs: observer,
		Limits: TraversalLimits{MaxDocsPerOrigin: 5}})
	res3, _ := drainAll(t, limited, q.Text)
	trips, results := 0, 0
	for _, res := range []*Result{res1, res2, res3} {
		trips += len(res.Degradation().LimitTrips)
		results += len(res.Metrics().ResultTimes())
	}
	if trips == 0 {
		t.Fatal("the document budget did not trip")
	}
	var tripped int64
	for _, kind := range []string{limitDocsPerOrigin, limitBytesPerOrigin, limitScope, limitFanout,
		limitQueueCap, limitDocBytes, limitSlowBody} {
		tripped += m.LimitTrips.With(kind).Value()
	}
	if tripped != int64(trips) {
		t.Errorf("traversal_limit_trips_total = %d, want the queries' %d trips", tripped, trips)
	}
	if got := m.ResultsEmitted.Value(); got != int64(results) {
		t.Errorf("results_total = %d, want the queries' %d result times", got, results)
	}
}

// TestTraceMatchesWaterfall asserts the acceptance contract of --trace:
// the span tree's dereference spans equal the metrics waterfall rows of
// the same run, and the tree covers parse → plan → traverse → exec.
func TestTraceMatchesWaterfall(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true, Trace: true})
	q := env.Dataset.Discover(1, 1)
	res, _ := drainAll(t, engine, q.Text)

	trace := res.Trace()
	if trace == nil {
		t.Fatal("no trace despite Config.Trace")
	}
	root := trace.Root()
	for _, stage := range []string{"parse", "plan", "traverse", "exec"} {
		if root.Count(stage) != 1 {
			t.Errorf("span %q count = %d, want 1", stage, root.Count(stage))
		}
	}
	rows := len(res.Metrics().Requests())
	if got := root.Count("deref"); got != rows {
		t.Errorf("deref spans = %d, waterfall rows = %d", got, rows)
	}
	if got := root.Count("document"); got == 0 {
		t.Error("no document spans")
	}
	if root.Count("scan") == 0 {
		t.Error("no iterator-stage spans under exec")
	}

	// The JSON export round-trips and preserves the deref count.
	data, err := trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var envelope obs.TraceJSON
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Schema != obs.TraceSchemaVersion {
		t.Errorf("trace schema = %d, want %d", envelope.Schema, obs.TraceSchemaVersion)
	}
	count := 0
	var walk func(obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		if s.Name == "deref" {
			count++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(envelope.Root)
	if count != rows {
		t.Errorf("JSON deref spans = %d, want %d", count, rows)
	}
}

// TestUntracedQueryHasNoTrace pins the opt-out: without Config.Trace or an
// observer, executions carry no span tree.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true})
	q := env.Dataset.Discover(1, 1)
	res, _ := drainAll(t, engine, q.Text)
	if res.Trace() != nil {
		t.Fatal("trace recorded without opt-in")
	}
	if _, enabled := engine.SharedCacheStats(); enabled {
		t.Fatal("cache stats enabled without a cache")
	}
}

// TestConcurrentQueriesAggregateCleanly runs N parallel queries against
// one engine (exercised under -race by make verify) and asserts that the
// registry counters sum correctly across queries and that each query's
// span tree is self-contained — its dereference spans match its own
// recorder, with no spans leaking between concurrent traces.
func TestConcurrentQueriesAggregateCleanly(t *testing.T) {
	env := testEnv(t)
	observer := NewObserver()
	engine := New(Config{Client: env.Client(), Lenient: true, Obs: observer})

	const n = 8
	type outcome struct {
		results int
		rows    int
		deref   int
		stats   int // successful requests
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := env.Dataset.Discover(1+i%4, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			res, err := engine.Query(ctx, q.Text)
			if err != nil {
				t.Error(err)
				return
			}
			count := 0
			for range res.Results {
				count++
			}
			s := res.Stats()
			outcomes[i] = outcome{
				results: count,
				rows:    len(res.Metrics().Requests()),
				deref:   res.Trace().Root().Count("deref"),
				stats:   s.Requests - s.Failed,
			}
		}(i)
	}
	wg.Wait()

	var totalResults, totalDocs int
	for i, o := range outcomes {
		if o.deref != o.rows {
			t.Errorf("query %d: %d deref spans vs %d waterfall rows (span trees interleaved?)", i, o.deref, o.rows)
		}
		totalResults += o.results
		totalDocs += o.stats
	}
	m := observer.Metrics
	if got := m.QueriesStarted.Value(); got != n {
		t.Errorf("queries_total = %d, want %d", got, n)
	}
	if got := m.QueriesSucceeded.Value(); got != n {
		t.Errorf("queries_succeeded_total = %d, want %d", got, n)
	}
	if got := m.ResultsEmitted.Value(); got != int64(totalResults) {
		t.Errorf("results_total = %d, want %d", got, totalResults)
	}
	if got := m.DerefDuration.Count(); got != int64(totalDocs) {
		t.Errorf("deref histogram count = %d, want %d", got, totalDocs)
	}
	if got := m.QueriesInFlight.Value(); got != 0 {
		t.Errorf("queries_in_flight = %d, want 0", got)
	}
	waitZero(t, "link_queue_depth", m.LinkQueueDepth)
	// Every query is tracked in recent, none in flight.
	if got := len(observer.Tracker.Recent()); got != n {
		t.Errorf("tracker recent = %d, want %d", got, n)
	}
	if got := len(observer.Tracker.InFlight()); got != 0 {
		t.Errorf("tracker in-flight = %d, want 0", got)
	}
}
