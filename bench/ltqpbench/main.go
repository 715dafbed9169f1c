// Command ltqpbench is the repository's benchmark: four workloads over one
// simulated Solid environment, measured end to end with the engine's
// observability off, checked against the centralized oracle, and replayed
// layer by layer under tracing. See README.md.
//
//	ltqpbench --workload discover_cold --seed 1 --seconds 20 --trace 0   one run, result as the last line
//	ltqpbench --seed 42 --out report.json [--repeat 2]                   every workload, both passes, a report
//	ltqpbench --diff a.json b.json                                       compare two reports
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ltqp/internal/rdf"
	"ltqp/internal/serve"
)

// setUps is how many times a run that reports setup_s sets up, to report
// the median.
const setUps = 5

type options struct {
	seed     int64
	window   time.Duration // length of each measured pass
	endToEnd bool          // measure the untraced window
	layers   bool          // live pass reading recorders, then the traced replay
	small    bool          // unit-test scale: small dataset, one set-up
}

// runWorkload sets a workload up, warms it up, and measures what o asks.
func runWorkload(ctx context.Context, w *workload, o options) (*workloadReport, []span, error) {
	var wd *world
	var setupS []float64
	n := 1
	if o.endToEnd && !o.small {
		n = setUps
	}
	for i := 0; i < n; i++ {
		if wd != nil {
			wd.close()
		}
		t0 := time.Now()
		var err error
		if wd, err = setUp(ctx, w, o.small); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer wd.close()
	if err := wd.warmUp(ctx, 2*time.Second); err != nil {
		return nil, nil, err
	}
	rep := &workloadReport{Name: w.Name, Why: w.Why, Clients: w.Clients}

	if o.endToEnd {
		win := wd.measure(ctx, o.seed, o.window, false)
		if err := wd.checkWarm(win); err != nil {
			return nil, nil, err
		}
		rep.Attempted, rep.Failed, rep.WindowS = win.attempted, win.failed, win.marks[len(win.marks)-1].at.Seconds()
		q := win.quiet()
		rep.Rounds, rep.RoundsKept = len(q.roundMS), q.rounds
		rep.RoundMS = []float64{q.roundMS[0], percentile(q.roundMS, 50), q.roundMS[len(q.roundMS)-1]}
		rep.EndToEnd, rep.Shapes = endToEndValues(wd, q, win, median(setupS), len(setupS))
	}
	if !o.layers {
		return rep, nil, nil
	}

	// Half the time goes to a live pass that reads what only the running
	// engine knows, half to the replay.
	var before, cache serve.CacheStats
	if wd.cache != nil {
		before = wd.cache.Stats()
	}
	win := wd.measure(ctx, o.seed, o.window/2, true)
	if err := wd.checkWarm(win); err != nil {
		return nil, nil, err
	}
	if wd.cache != nil {
		cache = wd.cache.Stats()
	}
	r, err := wd.replay(ctx, o.window/2)
	if err != nil {
		return nil, nil, err
	}
	// Concurrent clients share the fetch of a document both miss (the 404s
	// no cache keeps); a shared fetch is recorded once.
	liveDocs, liveQueries := int(cache.Dedups-before.Dedups), len(win.samples)
	for _, s := range win.samples {
		liveDocs += s.docs
	}
	if got := r.dereferences(); got*int64(liveQueries) != int64(liveDocs)*int64(r.queries) {
		return nil, nil, fmt.Errorf("%s: replay dereferenced %d documents in %d queries, the live run %d in %d: the replay no longer follows the engine",
			w.Name, got, r.queries, liveDocs, liveQueries)
	}
	rep.Attempted += win.attempted + r.queries
	rep.Failed += win.failed + r.wrong
	rep.Replayed = r.queries
	rep.PerLayer, rep.Layers = perLayerValues(wd, win, cache, r)
	// One round of spans shows the shape of every query of the mix; all of
	// them would be 80 MB of JSON for multipod_latency alone.
	spans := r.tr.spans
	for i, s := range spans {
		if int(s.Query) > len(wd.queries) {
			spans = spans[:i]
			break
		}
	}
	return rep, spans, nil
}

// checkWarm holds the warm workload to its premise: nothing evicted, and
// nothing fetched from the origin but the documents that do not exist (a
// 404 is not cached).
func (wd *world) checkWarm(win window) error {
	if wd.cache == nil {
		return nil
	}
	fetched := 0
	for _, s := range win.samples {
		fetched += s.fetched
	}
	if ev := wd.cache.Stats().Evictions; ev != 0 || fetched != 0 {
		return fmt.Errorf("%s: cache not warm: %d evictions, %d documents fetched from the origin", wd.w.Name, ev, fetched)
	}
	return nil
}

// replay replays whole rounds of the mix for about d, at least one.
func (wd *world) replay(ctx context.Context, d time.Duration) (*replay, error) {
	// The replay measures busy time; injected pod latency is wait.
	latency := wd.env.PodServer.Latency
	wd.env.PodServer.Latency = 0
	defer func() { wd.env.PodServer.Latency = latency }()

	// The warm engine's dictionary already holds every term: bring the
	// stand-in to that state with one round that is thrown away.
	engineDict := rdf.NewDict()
	if wd.w.Mode == modeWarm {
		discard := &replay{tr: newTracer()}
		for _, q := range wd.queries {
			if err := discard.query(ctx, wd, q, engineDict); err != nil {
				return nil, err
			}
		}
	}
	r := &replay{tr: newTracer()}
	start := time.Now()
	for rounds := 0; !enoughRounds(rounds, time.Since(start), d); rounds++ {
		for _, q := range wd.queries {
			dict := engineDict
			if wd.w.Mode != modeWarm {
				dict = rdf.NewDict()
			}
			if err := r.query(ctx, wd, q, dict); err != nil {
				return nil, fmt.Errorf("replay of %s: %w", q.Name, err)
			}
		}
	}
	return r, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (default: run all four into a report)")
		seed         = flag.Int64("seed", 42, "seed of the query order")
		seconds      = flag.Int("seconds", 20, "length of each measured window")
		trace        = flag.Int("trace", 0, "with --workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics by traced replay")
		out          = flag.String("out", "", "write the report as JSON to this file")
		traceOut     = flag.String("trace-out", "", "write one replayed round's spans as JSON to this file")
		repeat       = flag.Int("repeat", 1, "run the whole suite this many times and check that the runs agree")
		diff         = flag.Bool("diff", false, "compare the two reports given as arguments")
		commit       = flag.String("commit", "unknown", "commit to record in the report")
	)
	flag.Parse()
	var err error
	switch {
	case *seconds < 1:
		err = fmt.Errorf("--seconds %d: need at least 1", *seconds)
	case *diff:
		err = runDiff(flag.Args())
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace, *traceOut)
	default:
		err = runSuite(newEnvInfo(*seed, *seconds, *commit), *repeat, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltqpbench:", err)
		os.Exit(1)
	}
}

// runDiff compares two saved reports.
func runDiff(files []string) error {
	if len(files) != 2 {
		return errors.New("--diff takes two report files")
	}
	a, err := readReport(files[0])
	if err != nil {
		return err
	}
	b, err := readReport(files[1])
	if err != nil {
		return err
	}
	if n := printVerdicts(os.Stdout, compareReports(a, b)); n > 0 {
		return fmt.Errorf("%d metrics regressed", n)
	}
	return nil
}

// runOne is the driver's interface: one workload, one pass, the result as
// the last line of standard output.
func runOne(workloadName string, seed int64, seconds, trace int, traceOut string) error {
	ctx := context.Background()
	window := time.Duration(seconds) * time.Second
	w := findWorkload(workloadName)
	if w == nil {
		return fmt.Errorf("no workload %q", workloadName)
	}
	o := options{seed: seed, window: window, endToEnd: trace == 0, layers: trace != 0}
	rep, spans, err := runWorkload(ctx, w, o)
	if err != nil {
		return err
	}
	printWorkload(os.Stderr, rep)
	if traceOut != "" {
		if err := writeJSON(traceOut, spans); err != nil {
			return err
		}
	}
	vals := rep.EndToEnd
	if o.layers {
		vals = rep.PerLayer
	}
	line, err := json.Marshal(newResultLine(rep, vals))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d queries answered wrongly", w.Name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runSuite runs every workload, both passes each, repeat times over.
func runSuite(env envInfo, repeat int, out, traceOut string) error {
	ctx := context.Background()
	window := time.Duration(env.Seconds) * time.Second
	full := report{Schema: schema, Env: env}
	var allSpans []span
	failed := 0
	for i := 0; i < repeat; i++ {
		var runReports []workloadReport
		for _, w := range workloads {
			rep, spans, err := runWorkload(ctx, w, options{seed: env.Seed, window: window, endToEnd: true, layers: true})
			if err != nil {
				return err
			}
			printWorkload(os.Stdout, rep)
			failed += rep.Failed
			runReports = append(runReports, *rep)
			if i == 0 {
				allSpans = append(allSpans, spans...)
			}
		}
		full.Runs = append(full.Runs, runReports)
	}
	fmt.Printf("\nseed %d, %d s windows, nproc %d, GOMAXPROCS %d, %s, commit %s\n", full.Env.Seed, full.Env.Seconds,
		full.Env.NProc, full.Env.GOMAXPROCS, full.Env.Go, full.Env.Commit)
	if out != "" {
		if err := writeJSON(out, full); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, allSpans); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d queries answered wrongly", failed)
	}
	if repeat > 1 {
		fmt.Println()
		if n := checkRepeat(os.Stdout, &full); n > 0 {
			return fmt.Errorf("%d metrics disagree between runs of one commit", n)
		}
	}
	return nil
}
