package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltqp/internal/faultinject"
	"ltqp/internal/obs"
	"ltqp/internal/podserver"
	"ltqp/internal/solidbench"
)

// startEnv serves a small simulated environment on a real listener that
// the CLI (which uses http.DefaultClient) can reach.
func startEnv(t *testing.T) (*solidbench.Dataset, func()) {
	t.Helper()
	ps := podserver.New()
	ts := httptest.NewServer(ps)
	cfg := solidbench.SmallConfig()
	cfg.Host = ts.URL
	ds := solidbench.Generate(cfg)
	for _, p := range ds.BuildPods() {
		ps.AddPod(p)
	}
	return ds, ts.Close
}

func TestCLIRunsDiscoverQuery(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)

	var stdout, stderr strings.Builder
	code := run([]string{"--stats", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no output, stderr:\n%s", stderr.String())
	}
	// Each stdout line is one JSON binding (paper Fig. 2 format).
	var obj map[string]string
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("line 0 not JSON: %v\n%s", err, lines[0])
	}
	if _, ok := obj["messageId"]; !ok {
		t.Errorf("missing messageId in %v", obj)
	}
	if !strings.Contains(stderr.String(), "results in") {
		t.Errorf("missing stats: %s", stderr.String())
	}
}

func TestCLIExplicitSeedAndWaterfall(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(6, 1)
	seed := ds.PodBase(q.Person) + "profile/card"

	var stdout, stderr strings.Builder
	code := run([]string{"--waterfall", seed, q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "requests") {
		t.Errorf("waterfall missing:\n%s", stderr.String())
	}
}

func TestCLIFormats(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(5, 1) // distinct IPs: small result

	for _, format := range []string{"json", "csv", "tsv"} {
		var stdout, stderr strings.Builder
		code := run([]string{"--format", format, q.Text}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("format %s: exit %d, %s", format, code, stderr.String())
		}
		out := stdout.String()
		switch format {
		case "json":
			if !strings.Contains(out, `"vars"`) {
				t.Errorf("json output = %s", out)
			}
		case "csv":
			if !strings.HasPrefix(out, "locationIp") {
				t.Errorf("csv output = %s", out)
			}
		case "tsv":
			if !strings.HasPrefix(out, "?locationIp") {
				t.Errorf("tsv output = %s", out)
			}
		}
	}
}

func TestCLIQueryFile(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(2, 1)
	dir := t.TempDir()
	file := filepath.Join(dir, "q.rq")
	if err := os.WriteFile(file, []byte(q.Text), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"--query-file", file}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("no results via query file")
	}
}

func TestCLIPlan(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)
	var stdout, stderr strings.Builder
	if code := run([]string{"--plan", q.Text}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "plan: ") || !strings.Contains(stderr.String(), "pattern(") {
		t.Errorf("plan output missing:\n%s", stderr.String())
	}
}

// TestCLIExplainAndProvenance runs a query with --explain and --provenance:
// the report file must contain a versioned topology with nodes and edges,
// and every emitted ndjson row must carry a non-empty "_sources" list.
func TestCLIExplainAndProvenance(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)
	dir := t.TempDir()
	explainPath := filepath.Join(dir, "explain.json")
	dotPath := filepath.Join(dir, "topology.dot")

	var stdout, stderr strings.Builder
	code := run([]string{"--explain", explainPath, "--explain-dot", dotPath, "--provenance", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}

	data, err := os.ReadFile(explainPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema        int `json:"schema"`
		Contributions []struct {
			Document string `json:"document"`
			Matches  int    `json:"matches"`
		} `json:"contributions"`
		Topology struct {
			Nodes []struct {
				URL string `json:"url"`
			} `json:"nodes"`
			Edges []struct {
				Extractor string `json:"extractor"`
				Status    string `json:"status"`
			} `json:"edges"`
			Results []struct {
				Sources []string `json:"sources"`
			} `json:"results"`
		} `json:"topology"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("explain report not JSON: %v\n%s", err, data)
	}
	if report.Schema != 1 {
		t.Errorf("explain schema = %d, want 1", report.Schema)
	}
	if len(report.Topology.Nodes) == 0 || len(report.Topology.Edges) == 0 {
		t.Errorf("topology empty: %d nodes, %d edges", len(report.Topology.Nodes), len(report.Topology.Edges))
	}
	if len(report.Contributions) == 0 {
		t.Error("no provenance contributions in report")
	}
	if len(report.Topology.Results) == 0 {
		t.Error("no result events in topology timeline")
	}

	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph traversal") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}

	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if line == "" {
			continue
		}
		rows++
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("result row not JSON: %v\n%s", err, line)
		}
		srcs, ok := obj["_sources"].([]interface{})
		if !ok || len(srcs) == 0 {
			t.Errorf("row lacks _sources: %s", line)
		}
	}
	if rows == 0 {
		t.Fatal("no results")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no query", nil},
		{"bad strategy", []string{"--strategy", "bogus", "SELECT ?x WHERE { ?x ?p ?o }"}},
		{"bad format", []string{"--format", "xml", "SELECT ?x WHERE { ?x ?p <http://127.0.0.1:1/x> }"}},
		{"parse error", []string{"NOT A QUERY"}},
		{"missing query file", []string{"--query-file", "/nonexistent/q.rq"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code == 0 {
				t.Errorf("expected failure, stdout: %s", stdout.String())
			}
		})
	}
}

// TestCLIAdaptiveAndDepthFlags: --max-depth and --shared-cache run the
// query, while the removed --adaptive flag (restart-based re-planning) and
// the removed "reason" queue policy are rejected as usage errors.
func TestCLIAdaptiveAndDepthFlags(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)
	var stdout, stderr strings.Builder
	code := run([]string{"--max-depth", "6", "--shared-cache", "8", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("no results with depth+cache flags")
	}
	for _, args := range [][]string{{"--adaptive"}, {"--queue-policy", "reason"}} {
		stdout.Reset()
		stderr.Reset()
		if code := run(append(args, q.Text), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (usage error): %s", args, code, stderr.String())
		}
	}
}

// TestCLIRetriesThroughFaults runs the CLI against a pod server that
// answers 30% of requests with 503 (bounded per URL): the resilience flags
// must carry the query through, and --stats must report the degradation.
func TestCLIRetriesThroughFaults(t *testing.T) {
	ps := podserver.New()
	inj := faultinject.New(21, faultinject.Rule{
		Probability:     0.3,
		Kind:            faultinject.Status,
		Status:          503,
		MaxFaultsPerURL: 2,
	})
	ts := httptest.NewServer(inj.Middleware(ps))
	defer ts.Close()
	cfg := solidbench.SmallConfig()
	cfg.Host = ts.URL
	ds := solidbench.Generate(cfg)
	for _, p := range ds.BuildPods() {
		ps.AddPod(p)
	}
	q := ds.Discover(1, 1)

	var stdout, stderr strings.Builder
	code := run([]string{"--stats", "--max-retries", "3", "--retry-base", "1ms", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	if inj.FaultCount() == 0 {
		t.Fatal("no faults injected")
	}
	if stdout.Len() == 0 {
		t.Error("no results despite retries")
	}
	if !strings.Contains(stderr.String(), "degraded:") {
		t.Errorf("stats output lacks degradation line:\n%s", stderr.String())
	}
}

// TestCLITraceExport runs a query with --trace and asserts the emitted
// JSON span tree's dereference spans equal the waterfall rows reported by
// --stats ("N HTTP requests"), the acceptance contract of the flag.
func TestCLITraceExport(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)
	tracePath := filepath.Join(t.TempDir(), "trace.json")

	var stdout, stderr strings.Builder
	code := run([]string{"--stats", "--trace", tracePath, q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name     string `json:"name"`
		DurUS    int64  `json:"duration_us"`
		Duration string `json:"duration"`
		Children []span `json:"children"`
	}
	var envelope struct {
		Schema int  `json:"schema"`
		Root   span `json:"root"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, data)
	}
	if envelope.Schema != 1 {
		t.Fatalf("trace schema = %d, want 1", envelope.Schema)
	}
	root := envelope.Root
	if root.Name != "query" {
		t.Fatalf("root span = %q", root.Name)
	}
	if root.Duration == "" {
		t.Error("root span lacks human-readable duration")
	}
	count := func(name string) int {
		n := 0
		var walk func(span)
		walk = func(s span) {
			if s.Name == name {
				n++
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(root)
		return n
	}
	for _, stage := range []string{"parse", "plan", "traverse", "exec"} {
		if count(stage) != 1 {
			t.Errorf("stage %q spans = %d, want 1", stage, count(stage))
		}
	}

	// --stats prints "N HTTP requests (M failed)"; deref spans must equal N.
	var requests int
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, "HTTP requests") {
			fmt.Sscanf(line, "%d HTTP requests", &requests)
		}
	}
	if requests == 0 {
		t.Fatalf("no request count in stats:\n%s", stderr.String())
	}
	if got := count("deref"); got != requests {
		t.Errorf("deref spans = %d, waterfall rows = %d", got, requests)
	}
}

// TestCLICacheStats asserts --stats surfaces document cache hit/miss
// counters when --shared-cache is enabled.
func TestCLICacheStats(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)

	var stdout, stderr strings.Builder
	code := run([]string{"--stats", "--shared-cache", "8", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "shared cache:") || !strings.Contains(out, "misses") {
		t.Errorf("stats output lacks cache line:\n%s", out)
	}
}

// TestCLIJournalAndLog asserts --journal writes a complete, replayable
// JSONL journal while --log narrates the run as structured records on
// stderr, both fed by the same event bus.
func TestCLIJournalAndLog(t *testing.T) {
	ds, stop := startEnv(t)
	defer stop()
	q := ds.Discover(1, 1)
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")

	var stdout, stderr strings.Builder
	code := run([]string{"--journal", journalPath, "--log", "json", "--log-level", "info", q.Text}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	results := len(strings.Split(strings.TrimSpace(stdout.String()), "\n"))
	if results == 0 {
		t.Fatal("no results")
	}

	// The journal replays to the same result count the CLI printed.
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	summary, err := obs.ReadJournal(f)
	if err != nil {
		t.Fatalf("journal does not replay: %v", err)
	}
	if !summary.HasFooter || len(summary.Queries) != 1 {
		t.Fatalf("journal summary = %+v", summary)
	}
	if got := len(summary.Queries[0].ResultTimes()); got != results {
		t.Errorf("journal results = %d, CLI printed %d", got, results)
	}

	// The log narrates the lifecycle with the query correlation id.
	logOut := stderr.String()
	for _, want := range []string{`"msg":"query started"`, `"msg":"query finished"`, `"query_id":`} {
		if !strings.Contains(logOut, want) {
			t.Errorf("log missing %q:\n%s", want, logOut)
		}
	}

	// Bad flag values are rejected up front.
	if code := run([]string{"--log", "xml", q.Text}, &stdout, &stderr); code != 2 {
		t.Errorf("bad --log exit = %d, want 2", code)
	}
	if code := run([]string{"--log", "text", "--log-level", "loud", q.Text}, &stdout, &stderr); code != 2 {
		t.Errorf("bad --log-level exit = %d, want 2", code)
	}
}
