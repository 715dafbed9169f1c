// Command benchreport runs the full experiment suite (DESIGN.md E1–E10)
// against a freshly built simulated Solid environment and prints the
// paper-vs-measured tables recorded in EXPERIMENTS.md.
//
//	benchreport --persons 16 --latency 2ms
//
// With --replay-journal it analyzes an engine event journal (written by
// `ltqp-sparql --journal out.jsonl`) offline, reconstructing each query's
// timeline from the recorded timestamps: per-phase wall clock, time to
// first result, the dereference concurrency profile, and the slowest
// documents:
//
//	benchreport --replay-journal out.jsonl [--top 10]
//
// With --trace it renders critical-path latency attribution — the chains of
// dependent dereferences that gated time-to-first-result and total latency —
// from either a kept-trace export (/debug/traces/<id> JSON) or a journal:
//
//	benchreport --trace trace.json
//	benchreport --trace out.jsonl --top 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ltqp/internal/experiments"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

func main() {
	var (
		persons   = flag.Int("persons", 16, "pods in the simulated environment")
		seed      = flag.Int64("seed", 42, "generator seed")
		latency   = flag.Duration("latency", 2*time.Millisecond, "simulated network latency")
		waterfall = flag.Bool("waterfalls", false, "print the full E3/E4 waterfalls")
		replay    = flag.String("replay-journal", "", "analyze an engine event journal (JSONL) offline and print the reconstructed timeline")
		traceIn   = flag.String("trace", "", "render critical-path latency attribution from a trace export (/debug/traces/<id> JSON) or an engine journal (JSONL); - reads stdin")
		topN      = flag.Int("top", 10, "with --replay-journal/--trace, how many slowest entries to report per query / queries to report")
		loadFile  = flag.String("loadgen", "", "render a cmd/loadgen artifact (bench/BENCH_*_loadgen.json) as a table")
	)
	flag.Parse()

	if *loadFile != "" {
		if err := renderLoadReport(*loadFile, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	if *replay != "" {
		if err := replayJournal(*replay, *topN, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}
	if *traceIn != "" {
		if err := renderTraces(*traceIn, *topN, 60, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	cfg := solidbench.DefaultConfig()
	cfg.Persons = *persons
	cfg.Seed = *seed
	fmt.Fprintf(os.Stderr, "building environment (%d pods)...\n", cfg.Persons)
	env := simenv.New(cfg)
	defer env.Close()
	env.PodServer.Latency = *latency

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()

	fail := func(exp string, err error) {
		fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", exp, err)
		os.Exit(1)
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

	// E5 first: the environment itself.
	shape := experiments.E5DatasetStats(env)
	fmt.Printf("## E5 — Dataset shape (paper §4.2: 1,531 pods / 158,233 files / 3,556,159 triples)\n\n")
	fmt.Printf("| metric | paper (per pod) | measured (per pod) | this run (absolute) |\n|---|---|---|---|\n")
	fmt.Printf("| RDF files | %.1f | %.1f | %d |\n", shape.PaperFilesPerPod, shape.FilesPerPod, shape.Files)
	fmt.Printf("| triples   | %.1f | %.1f | %d |\n\n", shape.PaperTriplesPP, shape.TriplesPerPod, shape.Triples)

	// E7: the catalog.
	n, err := experiments.E7Catalog(env)
	if err != nil {
		fail("E7", err)
	}
	fmt.Printf("## E7 — Default query catalog\n\npaper: 37 default queries; measured: %d queries, all parse and plan\n\n", n)

	// E1/E2: Discover 6.5 end to end (Figs. 2–3).
	run, err := experiments.E1CLIDiscover(ctx, env)
	if err != nil {
		fail("E1", err)
	}
	fmt.Printf("## E1/E2 — Discover 6.5 (paper Fig. 2/3: 27 results in 3.8 s on the hosted demo)\n\n")
	fmt.Printf("| metric | measured |\n|---|---|\n")
	fmt.Printf("| results | %d |\n| total (ms) | %s |\n| first result (ms) | %s |\n| HTTP requests | %d |\n| pods touched | %d |\n\n",
		run.Results, ms(run.Total), ms(run.TTFR), run.Requests, run.PodsTouched)

	// E3: Fig. 4.
	run3, wf3, err := experiments.E3WaterfallSinglePod(ctx, env)
	if err != nil {
		fail("E3", err)
	}
	fmt.Printf("## E3 — Discover 1.5 waterfall (paper Fig. 4: single pod, dependent + parallel requests)\n\n")
	fmt.Printf("| metric | measured |\n|---|---|\n")
	fmt.Printf("| results | %d |\n| requests | %d |\n| max dependency depth | %d |\n| max parallel | %d |\n| pods touched | %d |\n\n",
		run3.Results, run3.Requests, run3.MaxDepth, run3.MaxParallel, run3.PodsTouched)
	if *waterfall {
		fmt.Println("```\n" + wf3 + "```")
	}

	// E4: Fig. 5.
	run4, wf4, err := experiments.E4WaterfallMultiPod(ctx, env)
	if err != nil {
		fail("E4", err)
	}
	fmt.Printf("## E4 — Discover 8.5 waterfall (paper Fig. 5: traversal across multiple pods)\n\n")
	fmt.Printf("| metric | measured |\n|---|---|\n")
	fmt.Printf("| results | %d |\n| requests | %d |\n| max dependency depth | %d |\n| max parallel | %d |\n| pods touched | %d |\n\n",
		run4.Results, run4.Requests, run4.MaxDepth, run4.MaxParallel, run4.PodsTouched)
	if *waterfall {
		fmt.Println("```\n" + wf4 + "```")
	}

	// E6: TTFR across the discover shapes.
	runs, err := experiments.E6TTFR(ctx, env)
	if err != nil {
		fail("E6", err)
	}
	fmt.Printf("## E6 — Time to first result (paper claim: first results < 1 s; non-complex queries in seconds)\n\n")
	fmt.Printf("| query | results | first result (ms) | total (ms) | requests |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		ttfr := "-"
		if r.HasTTFR {
			ttfr = ms(r.TTFR)
		}
		fmt.Printf("| %s | %d | %s | %s | %d |\n", r.Query, r.Results, ttfr, ms(r.Total), r.Requests)
	}
	fmt.Println()

	// E8: extractor ablation.
	rows, err := experiments.E8ExtractorAblation(ctx, env, 1)
	if err != nil {
		fail("E8", err)
	}
	fmt.Printf("## E8 — Link extraction ablation on Discover 1.1 ([14] shape: Solid-aware beats blind traversal)\n\n")
	fmt.Printf("| strategy | results | requests | total (ms) |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Printf("| %s | %d | %d | %s |\n", r.Strategy, r.Results, r.Requests, ms(r.Total))
	}
	fmt.Println()

	// E9: traversal vs oracle.
	cmp, err := experiments.E9Centralized(ctx, env, 1)
	if err != nil {
		fail("E9", err)
	}
	fmt.Printf("## E9 — Traversal vs centralized oracle on Discover 1.1\n\n")
	fmt.Printf("| system | results | prep | query (ms) |\n|---|---|---|---|\n")
	fmt.Printf("| link traversal (no index) | %d | none | %s |\n", cmp.Traversal.Results, ms(cmp.Traversal.Total))
	fmt.Printf("| centralized oracle | %d | ingest %d triples in %s ms | %s |\n\n",
		cmp.OracleCount, cmp.IngestedTrpl, ms(cmp.IngestTime), ms(cmp.OracleTime))

	// E10: authenticated querying.
	auth, err := experiments.E10Auth(ctx, 6, *seed)
	if err != nil {
		fail("E10", err)
	}
	fmt.Printf("## E10 — Authenticated querying (paper §3: query on behalf of the logged-in user)\n\n")
	fmt.Printf("| agent | results |\n|---|---|\n| anonymous | %d |\n| pod owner | %d |\n\n",
		auth.AnonResults, auth.AuthedResults)

	fmt.Println("all experiments completed.")
}
