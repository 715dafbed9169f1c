package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

func newEndpoint(t *testing.T) (*httptest.Server, *simenv.Env) {
	t.Helper()
	env := simenv.New(solidbench.SmallConfig())
	t.Cleanup(env.Close)
	h := NewHandler(ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true}), 2*time.Minute)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, env
}

func TestProtocolGetSelectJSON(t *testing.T) {
	srv, env := newEndpoint(t)
	q := env.Dataset.Discover(1, 1)
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(q.Text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %s", ct)
	}
	var parsed struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]interface{} `json:"bindings"`
		} `json:"results"`
	}
	body, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("not results JSON: %v\n%s", err, body)
	}
	if len(parsed.Results.Bindings) == 0 {
		t.Error("no bindings")
	}
	if len(parsed.Head.Vars) != 3 {
		t.Errorf("vars = %v", parsed.Head.Vars)
	}
}

func TestProtocolPostForms(t *testing.T) {
	srv, env := newEndpoint(t)
	q := env.Dataset.Discover(5, 1)

	// application/x-www-form-urlencoded
	resp, err := http.PostForm(srv.URL, url.Values{"query": {q.Text}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("form POST status = %d", resp.StatusCode)
	}

	// application/sparql-query
	req, _ := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader(q.Text))
	req.Header.Set("Content-Type", "application/sparql-query")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("direct POST status = %d", resp.StatusCode)
	}
}

func TestProtocolContentNegotiation(t *testing.T) {
	srv, env := newEndpoint(t)
	q := env.Dataset.Discover(5, 1)
	for accept, wantCT := range map[string]string{
		"text/csv":                  "text/csv",
		"text/tab-separated-values": "text/tab-separated-values",
	} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+url.QueryEscape(q.Text), nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("accept %s → %s", accept, ct)
		}
		if len(body) == 0 {
			t.Errorf("accept %s: empty body", accept)
		}
	}
}

func TestProtocolAsk(t *testing.T) {
	srv, env := newEndpoint(t)
	q := env.Dataset.Catalog()[36] // Short 5: ASK
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(q.Text))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"boolean"`) {
		t.Errorf("ask body = %s", body)
	}
}

func TestProtocolConstructTurtle(t *testing.T) {
	srv, env := newEndpoint(t)
	v := solidbench.NewVocab(env.Dataset.Config.Host)
	query := `PREFIX snvoc: <` + v.NS() + `>
CONSTRUCT { ?m snvoc:content ?c } WHERE {
  ?m snvoc:hasCreator <` + env.Dataset.WebID(0) + `>;
     snvoc:content ?c.
}`
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/turtle" {
		t.Errorf("content type = %s", ct)
	}
	if !strings.Contains(string(body), "vocabulary/content") {
		t.Errorf("turtle body = %s", truncateStr(string(body), 300))
	}

	// N-Triples via Accept.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+url.QueryEscape(query), nil)
	req.Header.Set("Accept", "application/n-triples")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Errorf("nt content type = %s", ct)
	}
}

func TestProtocolErrors(t *testing.T) {
	srv, _ := newEndpoint(t)
	// Missing query.
	resp, _ := http.Get(srv.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status = %d", resp.StatusCode)
	}
	// Parse error.
	resp, _ = http.Get(srv.URL + "?query=" + url.QueryEscape("NOT SPARQL"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d", resp.StatusCode)
	}
	// Bad method.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE status = %d", resp.StatusCode)
	}
}

func truncateStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// newObservedEndpoint builds the same mux main() serves: the SPARQL
// handler plus the observer's /metrics, /healthz and /debug/queries.
func newObservedEndpoint(t *testing.T) (*httptest.Server, *simenv.Env, *ltqp.Observer) {
	t.Helper()
	env := simenv.New(solidbench.SmallConfig())
	t.Cleanup(env.Close)
	observer := ltqp.NewObserver()
	h := NewHandler(ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, Obs: observer,
		SharedCache: ltqp.NewSharedCache(ltqp.SharedCacheOptions{})}), 2*time.Minute)
	mux := http.NewServeMux()
	mux.Handle("/sparql", h)
	observer.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, env, observer
}

// TestMetricsEndpoint is the acceptance check: after a query, GET /metrics
// returns Prometheus text whose ltqp_deref_duration_seconds count matches
// the query's successful document count, alongside the required counter
// families.
func TestMetricsEndpoint(t *testing.T) {
	srv, env, observer := newObservedEndpoint(t)
	q := env.Dataset.Discover(1, 1)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q.Text))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %s", ct)
	}
	text := string(body)
	for _, want := range []string{
		"ltqp_queries_total 1",
		"ltqp_documents_fetched_total",
		"ltqp_cache_hits_total",
		"# TYPE ltqp_deref_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, truncateStr(text, 600))
		}
	}
	// Histogram count == the query's successful document count.
	rec := observer.Tracker.Recent()
	if len(rec) != 1 {
		t.Fatalf("tracked queries = %d", len(rec))
	}
	docs := observer.Metrics.DocumentsFetched.Value() + observer.Metrics.CacheHits.Value()
	want := fmt.Sprintf("ltqp_deref_duration_seconds_count %d", docs)
	if !strings.Contains(text, want) {
		t.Errorf("/metrics missing %q", want)
	}

	// Health and query-debug endpoints respond.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz = %s", body)
	}
	resp, err = http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		Recent []struct {
			Query   string `json:"query"`
			Done    bool   `json:"done"`
			Results int    `json:"results"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatalf("debug/queries: %v", err)
	}
	resp.Body.Close()
	if len(dbg.Recent) != 1 || !dbg.Recent[0].Done || dbg.Recent[0].Results == 0 {
		t.Errorf("debug/queries recent = %+v", dbg.Recent)
	}
}

// TestEndpointConcurrentQueries exercises the whole protocol stack with
// parallel clients under -race and asserts the registry aggregates exactly
// once per query.
func TestEndpointConcurrentQueries(t *testing.T) {
	srv, env, observer := newObservedEndpoint(t)
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := env.Dataset.Discover(1+i%3, 1)
			resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q.Text))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := observer.Metrics
	if got := m.QueriesStarted.Value(); got != n {
		t.Errorf("queries_total = %d, want %d", got, n)
	}
	if got := m.QueriesSucceeded.Value(); got != n {
		t.Errorf("queries_succeeded_total = %d, want %d", got, n)
	}
	if got := len(observer.Tracker.Recent()); got != n {
		t.Errorf("tracked recent = %d, want %d", got, n)
	}
	// Each tracked query's span tree is self-contained: exactly one
	// root-level traverse and exec stage per trace.
	for _, rec := range observer.Tracker.Recent() {
		if rec.Trace == nil {
			t.Fatalf("query %d has no trace", rec.ID)
		}
		root := rec.Trace.Root()
		if root.Count("traverse") != 1 || root.Count("exec") != 1 {
			t.Errorf("query %d: traverse=%d exec=%d (interleaved spans?)",
				rec.ID, root.Count("traverse"), root.Count("exec"))
		}
	}
}
