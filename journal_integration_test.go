package ltqp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/faultinject"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/podserver"
	"ltqp/internal/simenv"
	"ltqp/internal/solid"
	"ltqp/internal/solidbench"
)

// journalEnv is the 3-hop chain of explainEnv with an event bus attached,
// so a query's full event stream can be journaled and replayed; Explain is
// on, so the live run also folds that stream into its topology, and a
// budget no query reaches keeps a ledger.
func journalEnv(t *testing.T, bus *ltqp.EventBus, maxDocs int) (base string, engine *ltqp.Engine) {
	t.Helper()
	ps := podserver.New()
	srv := httptest.NewServer(ps)
	t.Cleanup(srv.Close)
	base = srv.URL
	ps.AddDocument(base+"/a.ttl", fmt.Sprintf(
		"<%s/a.ttl#alice> <http://v/friend> <%s/b.ttl#bob>.", base, base), solid.PublicAccess)
	ps.AddDocument(base+"/b.ttl", fmt.Sprintf(
		"<%s/b.ttl#bob> <http://v/post> <%s/c.ttl#p1>.", base, base), solid.PublicAccess)
	ps.AddDocument(base+"/c.ttl", fmt.Sprintf(
		"<%s/c.ttl#p1> <http://v/title> \"hello\".", base), solid.PublicAccess)
	engine = ltqp.New(ltqp.Config{
		Client:       srv.Client(),
		Strategy:     ltqp.StrategyCMatch,
		Events:       bus,
		Explain:      true,
		MemBudget:    1 << 40,
		MaxDocuments: maxDocs,
	})
	return base, engine
}

// TestJournalReplayMatchesLiveRun is the acceptance test for the journal:
// capture a query over the 3-hop podserver fixture to a JSONL journal, then
// replay it offline and check the reconstruction reproduces the live run —
// same result count, the live TTFR exactly, all three documents, the full
// phase set, the live request rows, statistics, degradation report, result
// times and memory peak, and the very topology the live run's Explain report
// carries. The fold and the topology must also match under injected faults
// with retries, on a warm shared cache, and with a tripping traversal limit.
func TestJournalReplayMatchesLiveRun(t *testing.T) {
	bus := ltqp.NewEventBus()
	var buf bytes.Buffer
	journal, err := ltqp.NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	base, engine := journalEnv(t, bus, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, explainQuery(base))
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for range res.Results {
		live++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if live != 1 {
		t.Fatalf("live results = %d, want 1", live)
	}
	liveTTFR, ok := res.Metrics().TimeToFirstResult()
	if !ok {
		t.Fatal("live run has no TTFR")
	}
	if err := journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	summary, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !summary.HasFooter || summary.Dropped != 0 {
		t.Fatalf("journal footer=%v dropped=%d", summary.HasFooter, summary.Dropped)
	}
	if len(summary.Queries) != 1 {
		t.Fatalf("replayed queries = %d", len(summary.Queries))
	}
	q := summary.Queries[0]
	if q.ID != res.ID() {
		t.Errorf("replay id = %d, want %d", q.ID, res.ID())
	}
	if !q.Finished || q.Err != "" {
		t.Errorf("replay finished=%v err=%q", q.Finished, q.Err)
	}
	if n := len(q.ResultTimes()); n != live {
		t.Errorf("replay results = %d, live = %d", n, live)
	}

	// TTFR has one definition, the first result_emitted's time since
	// query_started's, so the replay has the live recorder's to the
	// nanosecond, inside the query's replayed duration.
	ttfr, ok := q.TimeToFirstResult()
	if !ok || ttfr != liveTTFR {
		t.Errorf("replay TTFR %v (%v), live %v", ttfr, ok, liveTTFR)
	}
	if ttfr <= 0 || ttfr > q.Duration {
		t.Errorf("replay TTFR = %v outside (0, %v]", ttfr, q.Duration)
	}

	// All three documents of the chain, each successfully dereferenced.
	docs := q.Requests()
	if len(docs) != 3 {
		t.Fatalf("replay docs = %+v, want 3", docs)
	}
	for _, d := range docs {
		if d.Failed() || d.Status != 200 || d.Triples == 0 {
			t.Errorf("doc %s = %+v", d.URL, d)
		}
	}
	if !slices.ContainsFunc(docs, func(d metrics.Request) bool { return d.Server > 0 }) {
		t.Errorf("no replayed row carries a server share: %+v", docs)
	}
	if q.PeakMem == 0 {
		t.Error("the replay has no memory peak: the query ran without a ledger")
	}
	assertReplayedFold(t, q, res)

	// The topology is a fold of the event stream, so the replay arrives at
	// the live run's: same nodes, edges, result sources and timeline offsets.
	assertReplayedTopology(t, q, res)

	// The core phase set is reconstructed in order.
	var phases []string
	for _, p := range q.Phases {
		phases = append(phases, p.Name)
	}
	for _, want := range []string{"parse", "plan", "traverse", "exec"} {
		found := false
		for _, p := range phases {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("phases = %v, missing %q", phases, want)
		}
	}

	// The human-readable report (what benchreport --replay-journal prints)
	// reflects the same reconstruction.
	var report strings.Builder
	summary.WriteReport(&report, 5)
	for _, want := range []string{
		fmt.Sprintf("query #%d", q.ID),
		"1 result",
		base + "/a.ttl",
	} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}

	t.Run("faulted", func(t *testing.T) {
		// Discover 1.1 with ~20% of requests answered 503, at most twice per
		// URL, four attempts each: the retries are rows of their own.
		env := simenv.New(solidbench.SmallConfig())
		defer env.Close()
		inj := faultinject.New(1234, faultinject.Rule{Probability: 0.2, Kind: faultinject.Status,
			Status: 503, MaxFaultsPerURL: 2})
		res, summary := journalQueries(t, ltqp.Config{Client: inj.Client(env.Client()), Lenient: true, Explain: true,
			Retry: &ltqp.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 1}},
			env.Dataset.Discover(1, 1).Text, 1)
		st := res[0].Stats()
		if st.Retries == 0 || st.Failed <= st.FailedDocuments {
			t.Fatalf("live stats %+v: the faults caused no retried failure", st)
		}
		t.Logf("live stats %+v", st)
		q := summary.Replay(res[0].ID())
		assertReplayedFold(t, q, res[0])
		assertReplayedTopology(t, q, res[0])
	})

	t.Run("warm", func(t *testing.T) {
		// The second run of Discover 1.1 over one shared cache: every row a
		// hit, the dead vocabulary links negative hits.
		env := simenv.New(solidbench.SmallConfig())
		defer env.Close()
		res, summary := journalQueries(t, ltqp.Config{Client: env.Client(), Lenient: true, Explain: true,
			SharedCache: ltqp.NewSharedCache(ltqp.SharedCacheOptions{})}, env.Dataset.Discover(1, 1).Text, 2)
		if st := res[1].Stats(); st.CacheHits == 0 || st.NegativeHits == 0 {
			t.Fatalf("warm stats %+v: want cache hits and negative hits", st)
		}
		for _, r := range res {
			q := summary.Replay(r.ID())
			assertReplayedFold(t, q, r)
			assertReplayedTopology(t, q, r)
		}
	})

	t.Run("tripped", func(t *testing.T) {
		// Discover 1.1 with a per-origin document budget the traversal
		// outgrows: a lenient query records the trip in its degradation
		// report, and the replay records the same one.
		env := simenv.New(solidbench.SmallConfig())
		defer env.Close()
		res, summary := journalQueries(t, ltqp.Config{Client: env.Client(), Lenient: true,
			Limits: ltqp.TraversalLimits{MaxDocsPerOrigin: 5}}, env.Dataset.Discover(1, 1).Text, 1)
		if trips := res[0].Degradation().LimitTrips; len(trips) == 0 {
			t.Fatal("the document budget did not trip")
		}
		assertReplayedFold(t, summary.Replay(res[0].ID()), res[0])
	})
}

// journalQueries runs query n times, one after another, on one engine built
// from cfg with a journal attached, and returns the finished results with
// the journal's replay.
func journalQueries(t *testing.T, cfg ltqp.Config, query string, n int) ([]*ltqp.Result, *obs.JournalSummary) {
	t.Helper()
	cfg.Events = ltqp.NewEventBus()
	cfg.MemBudget = 1 << 40 // a ledger, which no query fills
	var buf bytes.Buffer
	journal, err := ltqp.NewJournal(&buf, cfg.Events)
	if err != nil {
		t.Fatal(err)
	}
	engine := ltqp.New(cfg)
	var out []*ltqp.Result
	for range n {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := engine.Query(ctx, query)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		for range res.Results {
		}
		cancel()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Dropped != 0 {
		t.Fatalf("journal dropped %d events", summary.Dropped)
	}
	return out, summary
}

// assertReplayedFold checks that a query's replayed fold is the live one:
// the request rows (reason, attempt, cache flag and server share included)
// and the statistics and degradation report they give, limit trips
// included, the result times, and the ledger's peak.
func assertReplayedFold(t *testing.T, q *obs.QueryReplay, res *ltqp.Result) {
	t.Helper()
	if q == nil {
		t.Fatalf("query %d not in the journal", res.ID())
	}
	if got, live := q.Stats(), res.Stats(); got != live {
		t.Errorf("replayed request stats differ from the live ones\nlive:     %+v\nreplayed: %+v", live, got)
	}
	if got, live := q.Degradation(), res.Degradation(); !reflect.DeepEqual(got, live) {
		t.Errorf("replayed degradation differs from the live one\nlive:     %+v\nreplayed: %+v", live, got)
	}
	if got, live := q.ResultTimes(), res.Metrics().ResultTimes(); !slices.Equal(got, live) {
		t.Errorf("replayed result times %v, live %v", got, live)
	}
	if live := res.Resources(); live == nil || q.PeakMem != live.Peak {
		t.Errorf("replayed memory peak %d, live ledger %+v", q.PeakMem, live)
	}
	got, live := q.Requests(), res.Metrics().Requests()
	if len(got) != len(live) {
		t.Fatalf("replayed %d rows, live %d", len(got), len(live))
	}
	for i, l := range live {
		r := got[i]
		if r.Reason == "" || r.Attempt < 1 {
			t.Errorf("replayed row %s has no reason or attempt: %+v", r.URL, r)
		}
		// The times are equal instants; only their locations may differ.
		if !r.Start.Equal(l.Start) || !r.End.Equal(l.End) {
			t.Errorf("row %d: replayed %v–%v, live %v–%v", i, r.Start, r.End, l.Start, l.End)
		}
		r.Start, r.End, l.Start, l.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if r != l {
			t.Errorf("row %d:\nlive:     %+v\nreplayed: %+v", i, l, r)
		}
	}
}

// assertReplayedTopology checks that folding a query's journaled events
// yields exactly the topology of its live Explain report.
func assertReplayedTopology(t *testing.T, q *obs.QueryReplay, res *ltqp.Result) {
	t.Helper()
	live, err := json.Marshal(res.Explain().Topology)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := json.Marshal(q.Topology.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain().Topology.Nodes) == 0 || len(res.Explain().Topology.Results) == 0 {
		t.Fatalf("live topology is empty: %s", live)
	}
	if !bytes.Equal(live, replayed) {
		t.Errorf("replayed topology differs from the live one\nlive:     %s\nreplayed: %s", live, replayed)
	}
}

// TestJournalReplayTopologyUnderConcurrency is the same live-vs-replay
// equality on a SolidBench query at the default six workers: hundreds of
// link events emitted concurrently must fold live in the order the journal
// recorded them.
func TestJournalReplayTopologyUnderConcurrency(t *testing.T) {
	env := simenv.New(solidbench.SmallConfig())
	defer env.Close()
	bus := ltqp.NewEventBus()
	var buf bytes.Buffer
	journal, err := ltqp.NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	engine := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, Events: bus, Explain: true})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := engine.Query(ctx, env.Dataset.Discover(8, 1).Text)
	if err != nil {
		t.Fatal(err)
	}
	for range res.Results {
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Dropped != 0 {
		t.Fatalf("journal dropped %d events", summary.Dropped)
	}
	q := summary.Replay(res.ID())
	if q == nil {
		t.Fatalf("query %d not in the journal", res.ID())
	}
	if n := len(res.Explain().Topology.Edges); n < 100 {
		t.Fatalf("only %d edges: not a concurrent traversal", n)
	}
	assertReplayedTopology(t, q, res)
}

// TestEveryStartedQueryFinishes: a query that parses but fails to plan has
// emitted its query_started, so it emits its query_finished too, with the
// error; one that fails to parse emits nothing. A replay shows every query
// finished, and the lifecycle counters, folds of the same two events, give
// started = succeeded + failed with none in flight.
func TestEveryStartedQueryFinishes(t *testing.T) {
	observer := ltqp.NewObserver()
	var buf bytes.Buffer
	journal, err := ltqp.NewJournal(&buf, observer.Events)
	if err != nil {
		t.Fatal(err)
	}
	engine := ltqp.New(ltqp.Config{Obs: observer})
	seeds := []string{"http://ex.org/seed"}
	for _, query := range []string{
		`SELECT ?x WHERE { ?x <http://ex.org/p> ?y } ORDER BY COUNT(?x)`, // fails in plan
		`SELECT ?x WHERE {`, // fails in parse
	} {
		if _, err := engine.QueryWithSeeds(context.Background(), query, seeds); err == nil {
			t.Fatalf("%s: no error", query)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Queries) != 1 {
		t.Fatalf("replayed %d queries, want the one that parsed", len(summary.Queries))
	}
	if q := summary.Queries[0]; !q.Finished || q.Err == "" {
		t.Errorf("replayed query finished=%v err=%q, want finished with the plan error", q.Finished, q.Err)
	}
	m := observer.Metrics
	started, succeeded, failed := m.QueriesStarted.Value(), m.QueriesSucceeded.Value(), m.QueriesFailed.Value()
	if started != 1 || started != succeeded+failed || m.QueriesInFlight.Value() != 0 {
		t.Errorf("started %d, succeeded %d, failed %d, in flight %d", started, succeeded, failed, m.QueriesInFlight.Value())
	}
	if n := len(observer.Tracker.InFlight()); n != 0 {
		t.Errorf("%d queries still tracked in flight", n)
	}
}

// TestDocCapSettlesEveryQueuedLink: the links a traversal at MaxDocuments
// drains without fetching are settled as doc-cap-pruned, so in a completed
// capped traversal every queued URL ends in a dereference or a pop-time
// prune. The cap is no defense trip: a strict query does not fail on it.
func TestDocCapSettlesEveryQueuedLink(t *testing.T) {
	bus := ltqp.NewEventBus()
	sub := bus.Subscribe(1 << 12)
	defer sub.Close()
	base, engine := journalEnv(t, bus, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, explainQuery(base))
	if err != nil {
		t.Fatal(err)
	}
	for range res.Results {
	}
	if err := res.Err(); err != nil {
		t.Fatalf("a strict query failed at the document cap: %v", err)
	}
	if trips := res.Degradation().LimitTrips; len(trips) != 0 {
		t.Errorf("the document cap reported trips %v", trips)
	}
	queued, settled, capped := map[string]bool{}, map[string]bool{}, 0
	for _, ev := range sub.Drain() {
		switch {
		case ev.Kind == obs.EventLinkQueued:
			queued[ev.URL] = true
		case ev.Kind == obs.EventDocumentDereferenced:
			settled[ev.URL] = true
		case ev.Kind == obs.EventLinkPruned && ev.Detail == obs.FateDocCapPruned:
			capped++
			settled[ev.URL] = true
		case ev.Kind == obs.EventLinkPruned && ev.Detail == obs.FateOriginBudgetPruned:
			settled[ev.URL] = true
		}
	}
	if capped == 0 {
		t.Fatal("no link was drained at the document cap")
	}
	for u := range queued {
		if !settled[u] {
			t.Errorf("queued %s was neither dereferenced nor pruned at pop", u)
		}
	}
	limitPruned := 0
	for _, e := range res.Explain().Topology.Edges {
		if e.To == base+"/b.ttl" && e.Status == obs.EdgeLimitPruned {
			limitPruned++
		}
	}
	if limitPruned != 1 {
		t.Errorf("topology has %d limit-pruned edges to b.ttl, want 1", limitPruned)
	}
}
