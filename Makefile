GO ?= go

.PHONY: build test verify fuzz-smoke differential loadgen-smoke bench-loadgen trace-smoke adversarial-smoke bench-guided bench-smoke

build:
	$(GO) build ./...

# Tier-1: the gate every change must keep green.
test: build
	$(GO) test ./...

# Pre-merge verification: gofmt-clean sources, vet, plus the full suite
# (including the chaos integration tests and the traversal-vs-oracle
# differential harness) under the race detector — the engine is heavily
# concurrent and must stay race-clean. The package tests include the
# allocation pins of the ingest path (turtle.TestParseAllocations,
# extract.TestScanAllocatesPerDocument — two allocations a link table,
# scanned from triples or from IDs as BenchmarkScanIDs does — and the 0
# allocs/op disabled-path pins of obs and resource), which hold under -race
# too. The executor's determinism and stress tests, its waiting (EXISTS
# waits for the store to close wherever it appears) and anti-join (MINUS)
# tests, and the store's concurrency tests (writers attaching documents
# while live BGP readers, MatchNow and Source read, documents that cross the
# triple log's page boundaries among them, and blocked readers woken or
# cancelled), run
# once more at GOMAXPROCS 1 and 4 (-cpu 1,4): scheduling must never change
# a result. So do the tests of a query's event fold (replay equals live,
# process counters equal the queries' recorders, concurrent queries), which
# is entered from the traversal workers, the executor and the finishing
# goroutine at once.
# The paper-scale environment test (1 531 pods, ~3 GB) runs in a second
# pass without the race detector, which would slow it past the CI timeout on
# a 2-CPU runner.
verify:
	@test -z "$$(gofmt -l .)" || { echo "verify: unformatted files:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race -skip '^TestPaperScaleEnvironment$$' ./...
	$(GO) test -race -cpu 1,4 -run '^(TestResultsDeterministicAcrossWorkerCounts|TestConcurrentAddDocumentAndQuery|TestConcurrentJoinsShareArenaPool|TestConcurrentBGPsOverClosedStore|TestBatchOpsMatchRowSemantics|TestExistsWaitsForStore|TestExistsFilterHoldsNoRows|TestMinus|TestMinusWithoutSharedVarsKeepsAll|TestLimitChargesTheSameEveryRun)$$' ./internal/exec
	$(GO) test -race -cpu 1,4 -run '^(TestStoreConcurrentAddMatchBGP|TestLiveBGPAcrossPages|TestOnDemandIndexBuiltUnderIngest|TestConcurrentProducersConsumers|TestSourceConcurrent|TestPostingsMatchReferenceIndexes|TestLiveBGPDrainsThenBlocks|TestBlockedCallsReturnOnCancel)$$' ./internal/store
	$(GO) test -race -cpu 1,4 -run '^(TestJournalReplayMatchesLiveRun|TestObserverMetricsMatchRecorder|TestConcurrentQueriesAggregateCleanly)$$' .
	$(GO) test -run '^TestPaperScaleEnvironment$$' ./internal/solidbench

# Differential harness on its own: 150 generated SELECT queries over the
# widened grammar (ORDER BY, GROUP BY/aggregates, MINUS, property paths),
# each run through the live traversal engine and the centralized oracle,
# multisets compared (internal/baseline/differential_test.go). The default
# 50-query subset rides in `make verify` via the package tests.
differential:
	LTQP_DIFF_QUERIES=150 $(GO) test -race -run TestDifferentialTraversalVsCentralized -v ./internal/baseline

# Short coverage-guided fuzzing of every fuzz target (Go native fuzzing
# only supports one -fuzz target per invocation). CI runs this on every
# change; longer local runs just need a bigger FUZZTIME.
FUZZTIME ?= 20s

fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/turtle
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/sparql
	$(GO) test -run '^$$' -fuzz '^FuzzDictRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzDictAgainstMap$$' -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzBGPAgainstNestedLoop$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzBatchSelection$$' -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzWriteJSON$$' -fuzztime $(FUZZTIME) ./internal/results
	$(GO) test -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseServerTiming$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzLinkExtraction$$' -fuzztime $(FUZZTIME) ./internal/extract

# Multi-tenant serving smoke (CI): a short multi-client load run that must
# finish with zero errors, nonzero shared-cache hits, and zero duplicate
# in-flight fetches (the singleflight invariant).
loadgen-smoke: build
	$(GO) run ./cmd/loadgen --clients 8 --duration 5s --persons 4 --check \
		--heap-profile loadgen-heap.pprof --metrics-out loadgen-metrics.prom > /dev/null
	@grep -q '^ltqp_query_mem_bytes_count' loadgen-metrics.prom \
		|| { echo "loadgen-smoke: ltqp_query_mem_bytes missing from /metrics"; exit 1; }

# Distributed-tracing smoke (CI): the 3-hop pod-server query under the race
# detector, asserting client and server span counts match the document
# count, and exporting the merged client+server trace as a JSON artifact.
# benchreport --trace then parses the artifact and renders its waterfall and
# critical path, so a kept-trace export that stops parsing or rendering
# fails here. The same query's event journal is rendered too, and the job
# fails when a critical-path row replayed from it has no discovery reason.
trace-smoke: build
	LTQP_TRACE_ARTIFACT=$(CURDIR)/trace-smoke.json LTQP_JOURNAL_ARTIFACT=$(CURDIR)/trace-smoke.jsonl \
		$(GO) test -race -run 'TestCriticalPathThreeHop|TestTraceSmokeThreeHop' -v .
	@test -s trace-smoke.json \
		|| { echo "trace-smoke: trace artifact missing or empty"; exit 1; }
	@test -s trace-smoke.jsonl \
		|| { echo "trace-smoke: journal artifact missing or empty"; exit 1; }
	$(GO) run ./cmd/benchreport --trace trace-smoke.json > /dev/null
	$(GO) run ./cmd/benchreport --trace trace-smoke.jsonl > trace-smoke-journal.txt
	@grep -q '\] [^ ]' trace-smoke-journal.txt && ! grep -q '\] *$$' trace-smoke-journal.txt \
		|| { echo "trace-smoke: journal critical-path rows carry no discovery reason"; cat trace-smoke-journal.txt; exit 1; }

# Adversarial-pod smoke (CI): every attack class (link bomb, alias loop,
# cross-origin spoofing, slow-loris, oversized documents) against a defended
# engine under the race detector, archiving the degradation report — which
# limits tripped and how many fetches each attacker extracted.
adversarial-smoke: build
	LTQP_ADVERSARIAL_ARTIFACT=$(CURDIR)/adversarial-report.json \
		$(GO) test -race -run 'TestAdversarial' -v .
	@test -s adversarial-report.json \
		|| { echo "adversarial-smoke: degradation report missing or empty"; exit 1; }

# Benchmark-module smoke (CI): bench/ltqpbench is a module of its own, so the
# root `go test ./...` never compiles it and an internal/* API break would
# only surface when the benchmark pipeline runs. Vet and test it, then run
# the warm and the cold workload for 3 s each with the traced replay, which
# fails (non-zero exit) on a wrong answer or when the replay stops reaching
# the documents the live engine reached, and complex_exec for 3 s untraced:
# the only workload that sorts over the full store. An ORDER BY answer out
# of the oracle's sequence, or a LIMIT answer that is not part of the
# unlimited one, fails it. The two per-document micro-benchmarks of a warm
# query (link-table filtering, segment attach) run 100 iterations each so
# they keep compiling and running, and so do the link table's ID scan
# (BenchmarkScanIDs: a cold fetch building a document's table from its ID
# triples, 2 allocs/op) and the dictionary's intern benchmarks: a hit on a
# known term, and a fresh dictionary taking 2 000 pod IRIs twice, as a cold
# engine does. BenchmarkBGPClosed runs Complex 1's basic graph pattern as one
# operator over a closed 12-person SolidBench store, and BenchmarkDistinctChain
# runs Discover 8.1 (DISTINCT over part of a chain with an alternative path in
# it) over the same store, both with -benchmem.
bench-smoke:
	cd bench/ltqpbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench '^BenchmarkAppendLinksTable$$' -benchtime 100x ./internal/extract
	$(GO) test -run '^$$' -bench '^BenchmarkScanIDs$$' -benchtime 100x -benchmem ./internal/extract
	$(GO) test -run '^$$' -bench '^BenchmarkAttachWarmSegments$$' -benchtime 100x ./internal/store
	$(GO) test -run '^$$' -bench '^BenchmarkDictIntern(Hit|Fresh)$$' -benchtime 100x -benchmem ./internal/rdf
	$(GO) test -run '^$$' -bench '^(BenchmarkBGPClosed|BenchmarkDistinctChain)$$' -benchtime 100x -benchmem ./internal/exec
	bash bench/ltqpbench/run.sh --workload discover_warm --seed 7 --seconds 3 --trace 1 > /dev/null
	bash bench/ltqpbench/run.sh --workload discover_cold --seed 7 --seconds 3 --trace 1 > /dev/null
	bash bench/ltqpbench/run.sh --workload complex_exec --seed 7 --seconds 3 --trace 0 > /dev/null

# Guided-vs-FIFO queue comparison (EXPERIMENTS.md E20): the solidbench
# Discover mix under both queue policies, archived as a dated artifact —
# identical result multisets, fewer dereferences before the last result.
GUIDED_OUT ?= bench/BENCH_$(shell date +%Y-%m-%d)_guided.json

bench-guided: build
	LTQP_GUIDED_ARTIFACT=$(CURDIR)/$(GUIDED_OUT) \
		$(GO) test -run TestGuidedVsFIFODereferenceBench -v .
	@echo "wrote $(GUIDED_OUT)"

# Full load benchmark: baseline (no shared cache) vs shared-cache run at
# 256 concurrent clients, archived as a dated artifact in bench/.
LOADGEN_OUT ?= bench/BENCH_$(shell date +%Y-%m-%d)_loadgen.json

bench-loadgen: build
	$(GO) run ./cmd/loadgen --clients 256 --tenants 32 --duration 15s \
		--persons 8 --compare --out $(LOADGEN_OUT) > /dev/null
	$(GO) run ./cmd/benchreport --loadgen $(LOADGEN_OUT)
	@echo "wrote $(LOADGEN_OUT)"
