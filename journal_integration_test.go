package ltqp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ltqp"
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
// documents, the full phase set, and the very topology the live run's
// Explain report carries.
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

	raw := bytes.Clone(buf.Bytes())
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
	if q.MaxConcurrency < 1 {
		t.Errorf("max concurrency = %d", q.MaxConcurrency)
	}
	assertReplayedRequests(t, raw, q, res)

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
}

// assertReplayedRequests checks that a fault-free query's replayed
// dereferences are the live recorder's: the same request statistics, and
// each row failed exactly when its journaled document_dereferenced event
// carries an error.
func assertReplayedRequests(t *testing.T, journal []byte, q *obs.QueryReplay, res *ltqp.Result) {
	t.Helper()
	replayed := metrics.NewRecorder()
	for _, d := range q.Docs {
		replayed.Record(d)
	}
	got, live := replayed.Stats(), res.Stats()
	if got.Requests != live.Requests || got.Failed != live.Failed || got.TotalBytes != live.TotalBytes ||
		got.TotalTriples != live.TotalTriples || got.MaxDepth != live.MaxDepth || got.DistinctHosts != live.DistinctHosts {
		t.Errorf("replayed request stats differ from the live ones\nlive:     %+v\nreplayed: %+v", live, got)
	}
	errFlag := map[string]bool{}
	for _, line := range bytes.Split(journal, []byte("\n")) {
		var ev obs.Event
		if json.Unmarshal(line, &ev) == nil && ev.Kind == obs.EventDocumentDereferenced {
			errFlag[ev.URL] = ev.Err != ""
		}
	}
	for _, d := range q.Docs {
		if flag, ok := errFlag[d.URL]; !ok || d.Failed() != flag {
			t.Errorf("replayed %s: Failed() = %v, journal error flag %v (journaled: %v)", d.URL, d.Failed(), flag, ok)
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
