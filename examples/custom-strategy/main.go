// Custom traversal strategies: the engine is modular — link extraction
// strategies and link-queue disciplines are plug-and-play, mirroring
// Comunica's configuration system that the paper highlights ("modules can
// be enabled or disabled using a plug-and-play configuration system for
// the flexible combination of techniques during experimentation").
//
// This example runs one Discover query under every built-in strategy and
// prints the cost/completeness trade-off, then shows the guided link queue
// reordering traversal.
//
//	go run ./examples/custom-strategy
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ltqp"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

func main() {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 10
	env := simenv.New(cfg)
	defer env.Close()

	query := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	fmt.Printf("query: %s\n\n", query.Name)
	fmt.Printf("%-14s %8s %9s %10s   %s\n", "strategy", "results", "requests", "time", "notes")

	for _, s := range []struct {
		strategy ltqp.Strategy
		maxDocs  int
		note     string
	}{
		{ltqp.StrategySolid, 0, "paper default: Solid-aware + cMatch + LDP"},
		{ltqp.StrategySolidNoLDP, 0, "type-index-guided only (skips noise/)"},
		{ltqp.StrategyLDPOnly, 0, "blind container walk of the pod"},
		{ltqp.StrategyCMatch, 0, "query-driven only: cannot bootstrap from a profile"},
		{ltqp.StrategyCAll, 3000, "follow everything (capped!)"},
	} {
		engine := ltqp.New(ltqp.Config{
			Client:       env.Client(),
			Lenient:      true,
			Strategy:     s.strategy,
			MaxDocuments: s.maxDocs,
		})
		start := time.Now()
		res, err := engine.Query(ctx, query.Text)
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for range res.Results {
			n++
		}
		fmt.Printf("%-14s %8d %9d %10s   %s\n",
			s.strategy, n, res.Stats().Requests,
			time.Since(start).Round(time.Millisecond), s.note)
	}

	// The guided queue schedules type-index links before blind container
	// members and favours links the query names or that productive
	// documents yielded, an enhancement direction the paper cites [34].
	fmt.Println("\nwith the guided link queue (type-index links first):")
	engine := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true, QueuePolicy: "guided"})
	start := time.Now()
	res, err := engine.Query(ctx, query.Text)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	var first time.Duration
	for range res.Results {
		if n == 0 {
			first = time.Since(start)
		}
		n++
	}
	fmt.Printf("%d results; first after %s, all after %s\n",
		n, first.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
}
