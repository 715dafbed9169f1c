package ltqp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
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
// on, so the live run also folds that stream into its topology.
func journalEnv(t *testing.T, bus *ltqp.EventBus) (base string, engine *ltqp.Engine) {
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
		Client:   srv.Client(),
		Strategy: ltqp.StrategyCMatch,
		Events:   bus,
		Explain:  true,
	})
	return base, engine
}

// TestJournalReplayMatchesLiveRun is the acceptance test for the journal:
// capture a query over the 3-hop podserver fixture to a JSONL journal, then
// replay it offline and check the reconstruction reproduces the live run —
// same result count, a TTFR bounded by the recorded timestamps, all three
// documents, the full phase set, the live request rows and statistics, and
// the very topology the live run's Explain report carries. The rows and the
// topology must also match under injected faults with retries and on a warm
// shared cache.
func TestJournalReplayMatchesLiveRun(t *testing.T) {
	bus := ltqp.NewEventBus()
	var buf bytes.Buffer
	journal, err := ltqp.NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	base, engine := journalEnv(t, bus)

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
	if q.Results != live {
		t.Errorf("replay results = %d, live = %d", q.Results, live)
	}

	// TTFR is reconstructed purely from recorded timestamps: it must exist
	// and sit inside the query's replayed duration. Compare against the live
	// recorder loosely — both clocks watched the same run.
	if !q.HasTTFR {
		t.Fatal("replay has no TTFR")
	}
	if q.TTFR <= 0 || q.TTFR > q.Duration {
		t.Errorf("replay TTFR = %v outside (0, %v]", q.TTFR, q.Duration)
	}
	if diff := (q.TTFR - liveTTFR).Abs(); diff > 250*time.Millisecond {
		t.Errorf("replay TTFR %v vs live %v (diff %v)", q.TTFR, liveTTFR, diff)
	}

	// All three documents of the chain, each successfully dereferenced.
	if len(q.Docs) != 3 {
		t.Fatalf("replay docs = %+v, want 3", q.Docs)
	}
	for _, d := range q.Docs {
		if d.Failed() || d.Status != 200 || d.Triples == 0 {
			t.Errorf("doc %s = %+v", d.URL, d)
		}
	}
	if !slices.ContainsFunc(q.Docs, func(d metrics.Request) bool { return d.Server > 0 }) {
		t.Errorf("no replayed row carries a server share: %+v", q.Docs)
	}
	assertReplayedRequests(t, q, res)

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
		assertReplayedRequests(t, q, res[0])
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
			assertReplayedRequests(t, q, r)
			assertReplayedTopology(t, q, r)
		}
	})
}

// journalQueries runs query n times, one after another, on one engine built
// from cfg with a journal attached, and returns the finished results with
// the journal's replay.
func journalQueries(t *testing.T, cfg ltqp.Config, query string, n int) ([]*ltqp.Result, *obs.JournalSummary) {
	t.Helper()
	cfg.Events = ltqp.NewEventBus()
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

// assertReplayedRequests checks that a query's replayed dereference rows are
// the live recorder's, reason, attempt, cache flag and server share
// included, so a recorder fed them has the live statistics, every field.
func assertReplayedRequests(t *testing.T, q *obs.QueryReplay, res *ltqp.Result) {
	t.Helper()
	if q == nil {
		t.Fatalf("query %d not in the journal", res.ID())
	}
	if got, live := q.Stats(), res.Stats(); got != live {
		t.Errorf("replayed request stats differ from the live ones\nlive:     %+v\nreplayed: %+v", live, got)
	}
	replayed := metrics.NewRecorder()
	for _, d := range q.Docs {
		replayed.Record(d)
	}
	got, live := replayed.Requests(), res.Metrics().Requests()
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
