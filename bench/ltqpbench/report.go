package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"text/tabwriter"
)

const schema = "ltqpbench/1"

// envInfo records what a report was measured on.
type envInfo struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func newEnvInfo(seed int64, seconds int, commit string) envInfo {
	return envInfo{Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}

// workloadReport is everything one workload produced in one run.
type workloadReport struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Clients   int     `json:"clients"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WindowS   float64 `json:"window_s,omitempty"`
	// Rounds of the end-to-end window, how many of them the time metrics
	// kept, and the fastest, median and slowest round in ms per query.
	Rounds     int              `json:"rounds,omitempty"`
	RoundsKept int              `json:"rounds_kept,omitempty"`
	RoundMS    []float64        `json:"round_ms_per_query,omitempty"`
	Replayed   int              `json:"replayed_queries,omitempty"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	Layers     []layerRow       `json:"layers,omitempty"`
	Shapes     []shapeRow       `json:"shapes,omitempty"`
}

// report is the file --out writes: one entry of Runs per --repeat.
type report struct {
	Schema string             `json:"schema"`
	Env    envInfo            `json:"env"`
	Runs   [][]workloadReport `json:"runs"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric by name with unit, sample count and
// bound, then the layer budget and the per-shape detail.
func printWorkload(w io.Writer, r *workloadReport) {
	fmt.Fprintf(w, "\n== %s: %s\n", r.Name, r.Why)
	fmt.Fprintf(w, "   %d clients, %d queries attempted, %d failed\n", r.Clients, r.Attempted, r.Failed)
	if r.Rounds > 0 {
		fmt.Fprintf(w, "   time metrics from the faster %d of %d rounds; a round took %.3f / %.3f / %.3f ms per query (fastest / median / slowest)\n",
			r.RoundsKept, r.Rounds, r.RoundMS[0], r.RoundMS[1], r.RoundMS[2])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(d metricDef, v value) {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "   %s\t%.4f\t%s\tn=%d\t%s\n", d.Name, v.Value, d.Unit, v.Samples, bound)
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(tw, "   end-to-end\tvalue\tunit\tsamples\tbound\n")
		for _, d := range endToEnd {
			row(d, r.EndToEnd[d.Name])
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(tw, "   per-layer (%d queries replayed)\tvalue\tunit\tsamples\t\n", r.Replayed)
		for _, d := range perLayer {
			row(d, r.PerLayer[d.Name])
		}
	}
	tw.Flush()
	if r.Layers != nil {
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "   layer budget\tbusy ms/query\tshare of replayed busy time\n")
		for _, l := range r.Layers {
			share := ""
			if l.Share != 0 {
				share = fmt.Sprintf("%.1f%%", l.Share*100)
			}
			fmt.Fprintf(tw, "   %s\t%.4f\t%s\n", l.Layer, l.BusyMSPerQuery, share)
		}
		if v, ok := r.PerLayer["core.cpu_ms_per_query"]; ok {
			fmt.Fprintf(tw, "   cpu_ms_per_query (live, untraced)\t%.4f\t\n", v.Value)
		}
		tw.Flush()
	}
	if r.Shapes != nil {
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "   query shape\tn\tttfr_ms p50\tquery_ms p50\tdocs\trows\n")
		for _, s := range r.Shapes {
			fmt.Fprintf(tw, "   %s\t%d\t%.3f\t%.3f\t%d\t%d\n", s.Name, s.Samples, s.TTFRMSP50, s.QueryMSP50, s.Docs, s.Rows)
		}
		tw.Flush()
	}
}

// verdict compares one end-to-end metric on one workload between two sets
// of runs.
type verdict struct {
	Workload string
	Metric   metricDef
	A, B     float64 // medians
	// Worse is how much worse B is than A as a share of A; negative is
	// better.
	Worse float64
	// Spread is the wider of the two sides' (max-min)/median.
	Spread float64
	Label  string
}

// metricValues collects one metric of one workload over a report's runs.
func metricValues(r *report, workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		for _, w := range run {
			if w.Name != workload {
				continue
			}
			if v, ok := w.EndToEnd[metric]; ok {
				out = append(out, v.Value)
			} else if v, ok := w.PerLayer[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func spreadOf(xs []float64) float64 {
	s := sortedCopy(xs)
	return ratio(s[len(s)-1]-s[0], percentile(s, 50))
}

// judge labels B against A: unresolved when either side's own runs spread
// wider than the bound, else regressed or improved when the medians differ
// by more than the bound, else unchanged.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{Metric: d, A: median(a), B: median(b)}
	v.Spread = math.Max(spreadOf(a), spreadOf(b))
	v.Worse = ratio(v.B-v.A, v.A)
	if d.Better == "higher" {
		v.Worse = -v.Worse
	}
	switch {
	case v.Spread > d.Bound:
		v.Label = "unresolved"
	case v.Worse > d.Bound:
		v.Label = "regressed"
	case v.Worse < -d.Bound:
		v.Label = "improved"
	default:
		v.Label = "unchanged"
	}
	return v
}

func compareReports(a, b *report) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := metricValues(a, w.Name, d.Name), metricValues(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(w io.Writer, vs []verdict) (regressed int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tworse by\tspread\tbound\t\n")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%g%%\t%s\n", v.Workload, v.Metric.Name,
			v.A, v.B, v.Worse*100, v.Spread*100, v.Metric.Bound*100, v.Label)
		if v.Label == "regressed" {
			regressed++
		}
	}
	tw.Flush()
	return regressed
}

// exactLayerMetrics must read the same on every run of one commit and seed.
var exactLayerMetrics = []string{"core.docs_per_query", "results.rows_per_query"}

// checkRepeat prints, per metric and workload, every run's value with the
// spread between them and the bound, and counts the disagreements: a gated
// metric spread wider than its bound, or a count that did not repeat.
func checkRepeat(w io.Writer, r *report) (disagreements int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tvalues\tspread\tbound\t\n")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vals := metricValues(r, wl.Name, d.Name)
			if len(vals) < 2 {
				continue
			}
			verdict := "ok"
			if spreadOf(vals) > d.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.1f%%\t%g%%\t%s\n", wl.Name, d.Name, vals, spreadOf(vals)*100, d.Bound*100, verdict)
		}
		for _, name := range exactLayerMetrics {
			vals := metricValues(r, wl.Name, name)
			if len(vals) < 2 {
				continue
			}
			s := sortedCopy(vals)
			verdict := "ok"
			if s[0] != s[len(s)-1] {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t\texact\t%s\n", wl.Name, name, vals, verdict)
		}
	}
	tw.Flush()
	return disagreements
}

// resultLine is the last line of a --workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(r *workloadReport, vals map[string]value) resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]resultValue{}}
	for name, v := range vals {
		out.Metrics[name] = resultValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}
