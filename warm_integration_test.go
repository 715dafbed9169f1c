package ltqp

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ltqp/internal/metrics"
	"ltqp/internal/obs"
)

// countingTransport counts the requests that reach the origin.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// warmRun is what a caller can see of one execution.
type warmRun struct {
	rows     []string
	failed   []string          // Degradation().FailedDocuments
	errNodes map[string]string // topology document-error nodes: url -> error
	stats    metrics.Stats
}

func runWarm(t *testing.T, engine *Engine, query string) warmRun {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	run := warmRun{errNodes: map[string]string{}}
	for b := range res.Results {
		run.rows = append(run.rows, b.Key(res.Vars))
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(run.rows)
	run.failed = res.Degradation().FailedDocuments
	sort.Strings(run.failed)
	for _, n := range res.Explain().Topology.Nodes {
		if n.Error != "" {
			run.errNodes[n.URL] = n.Error
		}
	}
	run.stats = res.Stats()
	return run
}

// TestWarmQueryMakesNoOriginRequest: the second run of a query over one
// shared cache sends nothing to the origin — the vocabulary IRIs that 404
// included — and still reports everything the cold run reported: the same
// rows, the same abandoned documents, the same document-error nodes in the
// topology and in the journal.
func TestWarmQueryMakesNoOriginRequest(t *testing.T) {
	env := testEnv(t)
	client := *env.Client()
	origin := &countingTransport{next: client.Transport}
	client.Transport = origin

	bus := NewEventBus()
	var buf bytes.Buffer
	journal, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	engine := New(Config{Client: &client, Lenient: true, Explain: true, Events: bus,
		SharedCache: NewSharedCache(SharedCacheOptions{})})
	q := env.Dataset.Discover(1, 1)

	cold := runWarm(t, engine, q.Text)
	coldRequests := origin.n.Load()
	if coldRequests == 0 || len(cold.rows) == 0 {
		t.Fatalf("cold run: %d origin requests, %d rows", coldRequests, len(cold.rows))
	}
	if len(cold.failed) == 0 {
		t.Fatal("the query follows no dead link: nothing here exercises negative entries")
	}
	warm := runWarm(t, engine, q.Text)
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	if got := origin.n.Load() - coldRequests; got != 0 {
		t.Errorf("warm run sent %d requests to the origin, want 0", got)
	}
	if !reflect.DeepEqual(warm.rows, cold.rows) {
		t.Errorf("warm run: %d rows, cold run %d, or different ones", len(warm.rows), len(cold.rows))
	}
	if !reflect.DeepEqual(warm.failed, cold.failed) {
		t.Errorf("FailedDocuments warm = %v, cold = %v", warm.failed, cold.failed)
	}
	if !reflect.DeepEqual(warm.errNodes, cold.errNodes) || len(warm.errNodes) != len(cold.failed) {
		t.Errorf("topology error nodes warm = %v, cold = %v", warm.errNodes, cold.errNodes)
	}

	// The waterfall has a row per dereference either way; warm, every row
	// came from the cache: documents as hits, dead links as negative hits.
	ws, cs := warm.stats, cold.stats
	if ws.Requests != cs.Requests || ws.Failed != cs.Failed || ws.FailedDocuments != cs.FailedDocuments {
		t.Errorf("warm stats %+v, cold %+v: requests and failures must agree", ws, cs)
	}
	if cs.CacheHits != 0 || cs.NegativeHits != 0 {
		t.Errorf("cold stats %+v: nothing was cached yet", cs)
	}
	if ws.NegativeHits != len(cold.failed) || ws.CacheHits != ws.Requests-ws.Failed {
		t.Errorf("warm stats %+v: want %d negative hits and every other request a cache hit", ws, len(cold.failed))
	}
	if sc, _ := engine.SharedCacheStats(); sc.NegativeHits != int64(len(cold.failed)) || sc.Hits != int64(ws.CacheHits) {
		t.Errorf("shared cache stats %+v: want %d negative hits, %d hits", sc, len(cold.failed), ws.CacheHits)
	}

	// The journal of the warm run names the same failed documents.
	summary, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Queries) != 2 {
		t.Fatalf("journal holds %d queries, want 2", len(summary.Queries))
	}
	var journaled [2]map[string]string
	for i, jq := range summary.Queries {
		journaled[i] = map[string]string{}
		for _, d := range jq.Requests() {
			if d.Failed() {
				journaled[i][d.URL] = d.Err
			}
		}
	}
	if !reflect.DeepEqual(journaled[0], journaled[1]) || !reflect.DeepEqual(journaled[1], cold.errNodes) {
		t.Errorf("journal failed documents cold = %v, warm = %v, topology = %v", journaled[0], journaled[1], cold.errNodes)
	}
}
