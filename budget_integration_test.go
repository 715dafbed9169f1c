package ltqp_test

// Budget integration tests: a query whose traversal balloons past
// Config.MemBudget must fail with a typed *ltqp.BudgetExceededError whose
// breakdown attributes the spend per layer — while sibling queries on the
// same engine, untouched by the pressure, complete normally. Memory
// pressure is injected with the faultinject Bloat rule, which pads one
// pod's documents with thousands of synthetic (but valid) triples.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/faultinject"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

// measurePeak runs a query with accounting on and returns its peak bytes.
func measurePeak(t *testing.T, engine *ltqp.Engine, query string) int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := engine.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	for range res.Results {
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	snap := res.Resources()
	if snap == nil {
		t.Fatal("accounting enabled but Resources() returned nil")
	}
	if snap.Peak <= 0 {
		t.Fatalf("peak = %d, want > 0", snap.Peak)
	}
	return snap.Peak
}

// TestBudgetExceededIsolatesSiblings bloats one person's pod so a query
// against it blows through the memory budget, and runs a second query
// against a different pod concurrently on the same engine. The pressured
// query must fail with a typed error carrying the full ledger breakdown;
// the sibling must complete with results, unaffected.
func TestBudgetExceededIsolatesSiblings(t *testing.T) {
	cfg := solidbench.SmallConfig()
	env := simenv.New(cfg)
	defer env.Close()
	qa := env.Dataset.Discover(1, 1)
	qb := env.Dataset.Discover(1, 2)
	if qa.Person == qb.Person {
		t.Fatal("variants resolve to the same person; test proves nothing")
	}

	// Calibrate the budget from the ledger's own measurements, halfway (in
	// ratio) between the largest clean peak and the bloated query's peak. A
	// clean peak depends on how many fetches happen to be in flight at once
	// and was seen to vary 3.6x between runs of one query, so the former
	// "2x one clean run" failed the sibling about once in fifty runs on a
	// loaded machine.
	bloat := faultinject.Rule{
		Pattern:      env.Dataset.PodBase(qa.Person),
		Probability:  1,
		Kind:         faultinject.Bloat,
		BloatTriples: 16384,
	}
	base := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, Obs: ltqp.NewObserver()})
	var clean int64
	for i := 0; i < 3; i++ {
		clean = max(clean, measurePeak(t, base, qa.Text), measurePeak(t, base, qb.Text))
	}
	bloated := measurePeak(t, ltqp.New(ltqp.Config{Client: faultinject.New(7, bloat).Client(env.Client()),
		Lenient: true, Obs: ltqp.NewObserver()}), qa.Text)
	if bloated < 16*clean {
		t.Fatalf("bloated peak %d is under 16x the clean peak %d: no room for a budget between them", bloated, clean)
	}
	budget := int64(math.Sqrt(float64(clean) * float64(bloated)))

	inj := faultinject.New(7, bloat)
	engine := ltqp.New(ltqp.Config{
		Client:    inj.Client(env.Client()),
		Lenient:   true,
		MemBudget: budget,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Sibling query: different pod, no bloat, must finish under budget.
	sibling := make(chan error, 1)
	go func() {
		res, err := engine.Query(ctx, qb.Text)
		if err != nil {
			sibling <- err
			return
		}
		n := 0
		for range res.Results {
			n++
		}
		if err := res.Err(); err != nil {
			sibling <- err
			return
		}
		if n == 0 {
			sibling <- errors.New("sibling query returned no results")
			return
		}
		sibling <- nil
	}()

	// Pressured query: same engine, bloated pod, must hit the budget.
	res, err := engine.Query(ctx, qa.Text)
	if err != nil {
		t.Fatal(err)
	}
	for range res.Results {
	}
	qerr := res.Err()
	if qerr == nil {
		t.Fatalf("bloated query completed under budget %d; injector faulted %d requests", budget, inj.FaultCount())
	}
	var be *ltqp.BudgetExceededError
	if !errors.As(qerr, &be) {
		t.Fatalf("error = %v (%T), want *ltqp.BudgetExceededError", qerr, qerr)
	}
	if be.Budget != budget {
		t.Errorf("BudgetExceededError.Budget = %d, want %d", be.Budget, budget)
	}
	if be.Attempted <= budget {
		t.Errorf("Attempted = %d, want > budget %d", be.Attempted, budget)
	}
	if be.Breakdown == nil {
		t.Fatal("BudgetExceededError.Breakdown is nil")
	}
	if !be.Breakdown.Exceeded {
		t.Error("Breakdown.Exceeded = false, want true")
	}
	if be.Breakdown.TopLayer == "" {
		t.Error("Breakdown.TopLayer is empty; the breakdown names no dominant layer")
	}
	if len(be.Breakdown.Layers) == 0 {
		t.Error("Breakdown has no per-layer usage")
	}
	if inj.FaultCount() == 0 {
		t.Error("no bloat injected; the budget was exceeded without pressure")
	}
	// The final snapshot agrees with the typed error about the failure.
	if snap := res.Resources(); snap == nil {
		t.Error("Resources() = nil after a budget failure")
	} else if !snap.Exceeded {
		t.Error("final snapshot does not mark the budget as exceeded")
	}

	if err := <-sibling; err != nil {
		t.Errorf("sibling query on the same engine failed: %v", err)
	}
}

// TestBudgetUnderLimitCompletes sets a generous budget and asserts the
// same bloat-free query completes with accounting attached — enforcement
// must not penalize queries that stay inside their allowance.
func TestBudgetUnderLimitCompletes(t *testing.T) {
	cfg := solidbench.SmallConfig()
	env := simenv.New(cfg)
	defer env.Close()
	q := env.Dataset.Discover(1, 1)

	engine := ltqp.New(ltqp.Config{
		Client:    env.Client(),
		Lenient:   true,
		MemBudget: 1 << 30, // 1 GiB: far above any SmallConfig query
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := engine.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range res.Results {
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("query under budget returned no results")
	}
	snap := res.Resources()
	if snap == nil {
		t.Fatal("MemBudget set but Resources() returned nil")
	}
	if snap.Exceeded {
		t.Error("snapshot marks a comfortably-under-budget query as exceeded")
	}
	if snap.Budget != 1<<30 {
		t.Errorf("snapshot budget = %d, want %d", snap.Budget, int64(1)<<30)
	}
	if snap.Peak <= 0 || snap.TopLayer == "" {
		t.Errorf("snapshot not populated: peak %d, top layer %q", snap.Peak, snap.TopLayer)
	}
}

// TestDiscoverExecChargeIsSmall pins what the executor charges the ledger,
// cumulatively, over four queries on the small dataset, each well above
// the highest of a dozen runs. Discover 1.1's five-pattern basic graph
// pattern is one operator that holds positions and emits a batch per step
// with results, where a scan per pattern and a join per pair held about
// 600 KB of batches and row copies; Discover 5.1 and Complex 1 are one
// operator too (25-75 KB and 240-530 KB measured). Discover 8.1 is one
// operator per alternative of its (hasPost|hasComment) path, each
// deduplicating the liked messages' creators before the fan-out to their
// messages: 660-770 KB, where a join per pattern charged 1.7-2.2 MB.
func TestDiscoverExecChargeIsSmall(t *testing.T) {
	env := simenv.New(solidbench.SmallConfig())
	defer env.Close()
	queries := []struct {
		name, text string
		limit      int64
	}{
		{"Discover 1.1", env.Dataset.Discover(1, 1).Text, 300_000},
		{"Discover 5.1", env.Dataset.Discover(5, 1).Text, 150_000},
		{"Discover 8.1", env.Dataset.Discover(8, 1).Text, 1_000_000},
	}
	for _, q := range env.Dataset.ComplexQueries() {
		if strings.HasPrefix(q.Name, "Complex 1:") {
			queries = append(queries, struct {
				name, text string
				limit      int64
			}{"Complex 1", q.Text, 700_000})
		}
	}
	for _, q := range queries {
		engine := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, MemBudget: 1 << 40})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		res, err := engine.Query(ctx, q.text)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		rows := 0
		for range res.Results {
			rows++
		}
		cancel()
		if err := res.Err(); err != nil || rows == 0 {
			t.Fatalf("%s: %d rows, error %v", q.name, rows, err)
		}
		charged := int64(-1)
		for _, l := range res.Resources().Layers {
			if l.Layer == "exec" {
				charged = l.Charged
			}
		}
		switch {
		case charged < 0:
			t.Errorf("%s: no exec layer in the ledger", q.name)
		case charged > q.limit:
			t.Errorf("%s: exec charged %d bytes over %d rows, want <= %d", q.name, charged, rows, q.limit)
		}
	}
}
