// Benchmarks reproducing every figure and quantitative claim of the
// paper's demonstration (see DESIGN.md E1–E10 and EXPERIMENTS.md for the
// paper-vs-measured record):
//
//	E1/Fig.2  BenchmarkFig2CLIDiscover6_5       — CLI execution of Discover 6.5
//	E2/Fig.3  BenchmarkFig3WebUIDiscover6_5     — result count + wall time + TTFR
//	E3/Fig.4  BenchmarkFig4WaterfallDiscover1_5 — single-pod request waterfall
//	E4/Fig.5  BenchmarkFig5WaterfallDiscover8_5 — multi-pod request waterfall
//	E5/§4.2   BenchmarkDatasetStats             — environment shape vs paper
//	E6/§1,5   BenchmarkTimeToFirstResult        — "first results < 1 s"
//	E7/§4.2   BenchmarkQueryCatalog             — the 37 default queries
//	E8/[14]   BenchmarkExtractorAblation        — Solid-aware vs blind traversal
//	E9/§1     BenchmarkBaselineCentralized      — traversal vs prior-index oracle
//	E10/§3    BenchmarkAuthenticatedQuery       — querying on behalf of a WebID
//
// Custom metrics reported per op: results, http_reqs, ttfr_ms, pods.
// Run with: go test -bench=. -benchmem
package ltqp_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/baseline"
	"ltqp/internal/experiments"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

// benchEnv lazily builds one shared simulated environment for all
// benchmarks (building pods is expensive and must stay out of timings).
var (
	benchEnvOnce sync.Once
	benchEnvVal  *simenv.Env
)

func benchEnv(b *testing.B) *simenv.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		cfg := solidbench.DefaultConfig()
		cfg.Persons = 12
		benchEnvVal = simenv.New(cfg)
	})
	return benchEnvVal
}

// report attaches the engine's domain metrics to the benchmark.
func report(b *testing.B, run experiments.QueryRun) {
	b.ReportMetric(float64(run.Results), "results")
	b.ReportMetric(float64(run.Requests), "http_reqs")
	b.ReportMetric(float64(run.PodsTouched), "pods")
	if run.HasTTFR {
		b.ReportMetric(float64(run.TTFR.Microseconds())/1000, "ttfr_ms")
	}
}

// BenchmarkFig2CLIDiscover6_5 reproduces the paper's Fig. 2: executing the
// Discover 6.5 query (forums of a creator) end to end, streaming JSON
// bindings, exactly as cmd/ltqp-sparql does.
func BenchmarkFig2CLIDiscover6_5(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var last experiments.QueryRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := experiments.E1CLIDiscover(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		if run.Results == 0 {
			b.Fatal("no results")
		}
		last = run
	}
	report(b, last)
}

// BenchmarkFig3WebUIDiscover6_5 reproduces the paper's Fig. 3 measurement:
// the hosted demo returned 27 results in 3.8 s for Discover 6.5; here the
// same query shape runs against the simulated environment and reports
// result count, wall time, and time to first result.
func BenchmarkFig3WebUIDiscover6_5(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	q := env.Dataset.Discover(6, 5)
	var last experiments.QueryRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunCatalogQuery(ctx, env, q, ltqp.Config{Lenient: true})
		if err != nil {
			b.Fatal(err)
		}
		last = run
	}
	report(b, last)
}

// BenchmarkFig4WaterfallDiscover1_5 reproduces Fig. 4: Discover 1.5
// targets a single pod; the waterfall shows seed → profile → type index →
// containers → date-fragmented post documents, with parallel fetches.
func BenchmarkFig4WaterfallDiscover1_5(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var last experiments.QueryRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, _, err := experiments.E3WaterfallSinglePod(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		if run.PodsTouched != 1 {
			b.Fatalf("single-pod query touched %d pods", run.PodsTouched)
		}
		last = run
	}
	report(b, last)
	b.ReportMetric(float64(last.MaxDepth), "depth")
	b.ReportMetric(float64(last.MaxParallel), "parallel")
}

// BenchmarkFig5WaterfallDiscover8_5 reproduces Fig. 5: Discover 8.5
// traverses multiple pods (likes → authors → their messages) without any
// user interaction.
func BenchmarkFig5WaterfallDiscover8_5(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var last experiments.QueryRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, _, err := experiments.E4WaterfallMultiPod(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		if run.PodsTouched < 2 {
			b.Fatalf("multi-pod query touched %d pods", run.PodsTouched)
		}
		last = run
	}
	report(b, last)
	b.ReportMetric(float64(last.MaxDepth), "depth")
}

// BenchmarkDatasetStats reproduces §4.2's environment description: the
// paper hosts 1,531 pods with 3,556,159 triples across 158,233 files
// (≈103 files and ≈2,323 triples per pod). The generator must match that
// per-pod shape at any scale; the benchmark measures generation +
// fragmentation throughput and reports the ratios.
func BenchmarkDatasetStats(b *testing.B) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	var shape experiments.DatasetShape
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := solidbench.Generate(cfg)
		stats := solidbench.ComputeStats(ds.BuildPods())
		shape = experiments.DatasetShape{
			Pods: stats.Pods, Files: stats.Files, Triples: stats.Triples,
			FilesPerPod:   float64(stats.Files) / float64(stats.Pods),
			TriplesPerPod: float64(stats.Triples) / float64(stats.Pods),
		}
	}
	paperFiles := float64(solidbench.PaperStats.Files) / float64(solidbench.PaperStats.Pods)
	paperTriples := float64(solidbench.PaperStats.Triples) / float64(solidbench.PaperStats.Pods)
	if shape.FilesPerPod < paperFiles/2 || shape.FilesPerPod > paperFiles*2 {
		b.Fatalf("files/pod = %.1f, paper = %.1f", shape.FilesPerPod, paperFiles)
	}
	b.ReportMetric(shape.FilesPerPod, "files/pod")
	b.ReportMetric(shape.TriplesPerPod, "triples/pod")
	b.ReportMetric(paperFiles, "paper_files/pod")
	b.ReportMetric(paperTriples, "paper_triples/pod")
}

// BenchmarkTimeToFirstResult measures the paper's headline claim (§1, §5):
// "non-complex queries can be completed in the order of seconds, with
// first results showing up in less than a second" — TTFR and total time
// across all eight Discover shapes.
func BenchmarkTimeToFirstResult(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var worstTTFR time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.E6TTFR(ctx, env)
		if err != nil {
			b.Fatal(err)
		}
		worstTTFR = 0
		for _, r := range runs {
			if r.HasTTFR && r.TTFR > worstTTFR {
				worstTTFR = r.TTFR
			}
		}
	}
	b.ReportMetric(float64(worstTTFR.Microseconds())/1000, "worst_ttfr_ms")
	if worstTTFR > time.Second {
		b.Logf("warning: worst TTFR %v exceeds the paper's 1 s claim", worstTTFR)
	}
}

// BenchmarkQueryCatalog reproduces §4.2's "37 default queries": all
// catalog queries must parse and translate; the benchmark measures the
// parse+plan pipeline over the whole catalog.
func BenchmarkQueryCatalog(b *testing.B) {
	env := benchEnv(b)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		n, err = experiments.E7Catalog(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	if n != 37 {
		b.Fatalf("catalog = %d queries, want 37", n)
	}
	b.ReportMetric(float64(n), "queries")
}

// BenchmarkExtractorAblation reproduces the request-count comparison
// behind the paper's approach ([14]): Solid-aware link extraction
// (type-index-guided) answers Discover 1 with far fewer HTTP requests than
// blind cAll traversal, with LDP-walking in between.
func BenchmarkExtractorAblation(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E8ExtractorAblation(ctx, env, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	byName := map[string]experiments.AblationRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
		b.Logf("%-14s results=%d requests=%d time=%v", r.Strategy, r.Results, r.Requests, r.Total)
	}
	// The paper-shape assertions: guided < walk < blind.
	guided, walk, blind := byName["solid-no-ldp"], byName["ldp-only"], byName["call"]
	if guided.Requests >= walk.Requests {
		b.Errorf("type-index-guided (%d reqs) should beat LDP walk (%d reqs)", guided.Requests, walk.Requests)
	}
	if walk.Requests >= blind.Requests {
		b.Errorf("LDP walk (%d reqs) should beat blind cAll (%d reqs)", walk.Requests, blind.Requests)
	}
	if guided.Results != walk.Results {
		b.Errorf("guided traversal lost results: %d vs %d", guided.Results, walk.Results)
	}
	b.ReportMetric(float64(guided.Requests), "reqs_guided")
	b.ReportMetric(float64(walk.Requests), "reqs_ldp")
	b.ReportMetric(float64(blind.Requests), "reqs_call")
}

// BenchmarkBaselineCentralized reproduces the paper's positioning against
// index-based systems (§1): the oracle answers faster per query but
// requires accumulating all pod data upfront (and the trust that implies);
// traversal pays per-query HTTP cost and needs no prior index.
func BenchmarkBaselineCentralized(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	var cmp experiments.OracleComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.E9Centralized(ctx, env, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cmp.Traversal.Results != cmp.OracleCount {
		b.Errorf("traversal found %d, oracle %d (single-pod query should agree)",
			cmp.Traversal.Results, cmp.OracleCount)
	}
	b.ReportMetric(float64(cmp.Traversal.Total.Microseconds())/1000, "traversal_ms")
	b.ReportMetric(float64(cmp.OracleTime.Microseconds())/1000, "oracle_query_ms")
	b.ReportMetric(float64(cmp.IngestTime.Microseconds())/1000, "oracle_ingest_ms")
}

// BenchmarkAuthenticatedQuery reproduces §3's authenticated querying: the
// engine executing on behalf of the pod owner sees more data than an
// anonymous run over the same access-controlled environment.
func BenchmarkAuthenticatedQuery(b *testing.B) {
	ctx := context.Background()
	var cmp experiments.AuthComparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.E10Auth(ctx, 6, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cmp.AuthedResults <= cmp.AnonResults {
		b.Errorf("auth should reveal more: anon=%d authed=%d", cmp.AnonResults, cmp.AuthedResults)
	}
	b.ReportMetric(float64(cmp.AnonResults), "anon_results")
	b.ReportMetric(float64(cmp.AuthedResults), "authed_results")
}

// BenchmarkOracleQueryOnly isolates the oracle's per-query cost over the
// pre-built centralized store (the lower bound traversal is compared to).
func BenchmarkOracleQueryOnly(b *testing.B) {
	env := benchEnv(b)
	st := baseline.CentralizedStore(env.Pods)
	q := env.Dataset.Discover(1, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := baseline.RunQuery(ctx, st, q.Text)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkPriorityQueue compares the FIFO and guided link queues on time
// to first result — the link-queue enhancement direction the paper cites
// [34].
func BenchmarkPriorityQueue(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	q := env.Dataset.Discover(1, 2)
	var fifo, prio experiments.QueryRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fifo, err = experiments.RunCatalogQuery(ctx, env, q, ltqp.Config{Lenient: true})
		if err != nil {
			b.Fatal(err)
		}
		prio, err = experiments.RunCatalogQuery(ctx, env, q, ltqp.Config{Lenient: true, QueuePolicy: "guided"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fifo.Results != prio.Results {
		b.Errorf("queue discipline changed results: %d vs %d", fifo.Results, prio.Results)
	}
	b.ReportMetric(float64(fifo.TTFR.Microseconds())/1000, "fifo_ttfr_ms")
	b.ReportMetric(float64(prio.TTFR.Microseconds())/1000, "prio_ttfr_ms")
}

// BenchmarkDocumentCache reproduces the "(disk cache)" rows of the paper's
// Fig. 4: with a shared document cache, a repeated query is served almost
// entirely without network traffic.
func BenchmarkDocumentCache(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	q := env.Dataset.Discover(1, 3)
	engine := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true,
		SharedCache: ltqp.NewSharedCache(ltqp.SharedCacheOptions{TTL: time.Hour})})
	// Warm.
	res, err := engine.Query(ctx, q.Text)
	if err != nil {
		b.Fatal(err)
	}
	for range res.Results {
	}
	b.ResetTimer()
	var cached, total int
	for i := 0; i < b.N; i++ {
		res, err := engine.Query(ctx, q.Text)
		if err != nil {
			b.Fatal(err)
		}
		for range res.Results {
		}
		cached, total = 0, 0
		for _, r := range res.Metrics().Requests() {
			total++
			if r.Cached {
				cached++
			}
		}
	}
	b.ReportMetric(float64(cached), "cached_reqs")
	b.ReportMetric(float64(total), "total_reqs")
	if cached == 0 {
		b.Error("no cached requests on the warm run")
	}
}

// BenchmarkComplexWorkload runs the complex query class (multi-pod joins
// with OPTIONAL/aggregation/ordering) — the frontier the paper's §5 points
// at.
func BenchmarkComplexWorkload(b *testing.B) {
	env := benchEnv(b)
	ctx := context.Background()
	queries := env.Dataset.ComplexQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			run, err := experiments.RunCatalogQuery(ctx, env, q, ltqp.Config{Lenient: true})
			if err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
			if run.Results == 0 {
				b.Fatalf("%s: no results", q.Name)
			}
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

// BenchmarkScaleSweep measures how query cost grows with environment size
// — the dimension separating the paper's hosted 1,531-pod deployment from
// laptop-scale runs. Single-pod queries (Discover 1) should stay flat as
// pods are added; the multi-pod Discover 8 grows with the reachable
// subweb.
func BenchmarkScaleSweep(b *testing.B) {
	for _, persons := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("pods=%d", persons), func(b *testing.B) {
			cfg := solidbench.DefaultConfig()
			cfg.Persons = persons
			env := simenv.New(cfg)
			defer env.Close()
			ctx := context.Background()
			var single, multi experiments.QueryRun
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				single, err = experiments.RunCatalogQuery(ctx, env, env.Dataset.Discover(1, 1), ltqp.Config{Lenient: true})
				if err != nil {
					b.Fatal(err)
				}
				multi, err = experiments.RunCatalogQuery(ctx, env, env.Dataset.Discover(8, 1), ltqp.Config{Lenient: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(single.Requests), "d1_reqs")
			b.ReportMetric(float64(multi.Requests), "d8_reqs")
			b.ReportMetric(float64(multi.PodsTouched), "d8_pods")
		})
	}
}
