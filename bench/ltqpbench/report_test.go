package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenReport is a report with every field of the schema set.
func goldenReport() report {
	w := workloadReport{
		Name: "discover_cold", Why: "why", Clients: 1, Attempted: 44, Failed: 0, WindowS: 1.5, Replayed: 22,
		Rounds: 2, RoundsKept: 1, RoundMS: []float64{16.5, 17, 17.5},
		EndToEnd: map[string]value{
			"query_ms_p50": {Value: 17.25, Unit: "ms", Samples: 44, Bound: 0.2},
		},
		PerLayer: map[string]value{"turtle.parse_us_per_doc": {Value: 41.5, Unit: "us", Samples: 2800}},
		Layers:   []layerRow{{Layer: "turtle", BusyMSPerQuery: 5.25, Share: 0.31}},
		Shapes:   []shapeRow{{Name: "Discover 1.1", Samples: 2, TTFRMSP50: 5.5, QueryMSP50: 16.5, Docs: 127, Rows: 51}},
	}
	return report{
		Schema: schema,
		Env:    envInfo{Seed: 42, Seconds: 20, NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "abc1234"},
		Runs:   [][]workloadReport{{w}},
	}
}

func TestReportSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenReport(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report schema changed; bump %q and run go test -update\n got: %s\nwant: %s", schema, got, want)
	}
	// What is written reads back.
	file := filepath.Join(t.TempDir(), "r.json")
	if err := writeJSON(file, goldenReport()); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(file)
	if err != nil {
		t.Fatal(err)
	}
	if back.Runs[0][0].EndToEnd["query_ms_p50"].Bound != 0.2 {
		t.Errorf("read back %+v", back.Runs[0][0].EndToEnd)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "some_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, []float64{100}, []float64{108}, "unchanged"},
		{"worse beyond the bound", lower, []float64{100}, []float64{112}, "regressed"},
		{"better beyond the bound", lower, []float64{100}, []float64{85}, "improved"},
		{"higher is better", higher, []float64{100}, []float64{85}, "regressed"},
		{"higher is better, gain", higher, []float64{100}, []float64{115}, "improved"},
		{"own runs disagree", lower, []float64{90, 100, 115}, []float64{130, 131, 132}, "unresolved"},
		{"medians of several runs", lower, []float64{99, 100, 101}, []float64{119, 120, 121}, "regressed"},
	} {
		if got := judge(c.d, c.a, c.b).Label; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCheckRepeat(t *testing.T) {
	run := func(allocs, docs float64) []workloadReport {
		return []workloadReport{{Name: "discover_cold",
			EndToEnd: map[string]value{"allocs_per_query": {Value: allocs}},
			PerLayer: map[string]value{"core.docs_per_query": {Value: docs}}}}
	}
	var out bytes.Buffer
	if n := checkRepeat(&out, &report{Runs: [][]workloadReport{run(100, 127), run(102, 127)}}); n != 0 {
		t.Errorf("runs 2%% apart on a 3%% bound: %d disagreements\n%s", n, out.String())
	}
	if n := checkRepeat(&out, &report{Runs: [][]workloadReport{run(100, 127), run(105, 127)}}); n != 1 {
		t.Errorf("runs 5%% apart on a 3%% bound: %d disagreements, want 1", n)
	}
	if n := checkRepeat(&out, &report{Runs: [][]workloadReport{run(100, 127), run(100, 128)}}); n != 1 {
		t.Errorf("document counts differ: %d disagreements, want 1", n)
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root: the tables the
// program reports from, plus how the driver runs it.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []boundedDef  `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// boundedDef is metricDef with the bound always written.
type boundedDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/ltqpbench/run.sh"},
		Paths:      []string{"bench/ltqpbench"},
		RunSeconds: 20,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadDef{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, boundedDef(d))
	}
	return b
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json equal to the
// program's own tables; go test -update rewrites it from them.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run go test -update")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}
