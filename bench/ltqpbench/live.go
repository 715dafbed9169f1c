package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ltqp"
	"ltqp/internal/algebra"
	"ltqp/internal/exec"
	"ltqp/internal/metrics"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/results"
	"ltqp/internal/sparql"
)

// outcome is one completed query as its caller saw it.
type outcome struct {
	ok    bool
	ttfr  time.Duration // submit -> first binding received
	total time.Duration // submit -> stream closed and rows serialized
	docs  int           // documents dereferenced, cache hits included
	// fetched counts documents that came off the network successfully.
	fetched int
	rows    int
}

// liveLayers are the per-layer numbers only the live engine can give: they
// depend on its scheduling. Read from the query's recorder in trace runs.
type liveLayers struct {
	mu                              sync.Mutex // clients add concurrently
	queries                         int
	docsBeforeFirst, docsBeforeLast float64
	maxParallel, peakQueue          float64
}

func (l *liveLayers) add(rec *metrics.Recorder, st metrics.Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queries++
	l.maxParallel += float64(st.MaxParallel)
	l.peakQueue += float64(rec.PeakQueueLength())
	times := rec.ResultTimes()
	if len(times) == 0 {
		return
	}
	first, last := rec.Epoch().Add(times[0]), rec.Epoch().Add(times[len(times)-1])
	for _, r := range rec.Requests() {
		if !r.End.After(first) {
			l.docsBeforeFirst++
		}
		if !r.End.After(last) {
			l.docsBeforeLast++
		}
	}
}

// client is the per-goroutine state of a load-generating client.
type client struct {
	chk  checker
	rows []rdf.Binding
	live *liveLayers // nil outside trace runs
}

// runTraversal runs q on eng to completion the way a caller would: drain the
// stream, then serialize the rows.
func runTraversal(ctx context.Context, eng *ltqp.Engine, q *query, c *client) outcome {
	var o outcome
	rows := c.rows[:0]
	t0 := time.Now()
	res, err := eng.Query(ctx, q.Text)
	if err != nil {
		return o
	}
	for b := range res.Results {
		if len(rows) == 0 {
			o.ttfr = time.Since(t0)
		}
		rows = append(rows, b)
	}
	if res.Err() != nil || results.WriteJSON(io.Discard, res.Vars, rows) != nil {
		return o
	}
	o.total = time.Since(t0)
	st := res.Stats()
	o.docs, o.rows = st.Requests, len(rows)
	o.fetched = st.Requests - st.CacheHits - st.Failed
	o.ok = c.chk.ok(q, rows)
	c.rows = rows
	if c.live != nil {
		c.live.add(res.Metrics(), st)
	}
	return o
}

// runClosed evaluates q over the complete centralized store: parse, plan,
// execute, serialize. exec.Eval is the engine's own entry point; it routes
// to exec.EvalBatch and decodes batches into bindings, which nothing outside
// package exec can do.
func runClosed(ctx context.Context, wd *world, q *query, c *client) outcome {
	var o outcome
	rows := c.rows[:0]
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	parsed, err := sparql.ParseQuery(q.Text)
	if err != nil {
		return o
	}
	op, err := algebra.Translate(parsed)
	if err != nil {
		return o
	}
	op = plan.New(parsed.MentionedIRIs()).Optimize(op)
	for b := range exec.Eval(ctx, op, exec.NewEnv(wd.central)) {
		if len(rows) == 0 {
			o.ttfr = time.Since(t0)
		}
		rows = append(rows, b)
	}
	if results.WriteJSON(io.Discard, parsed.ProjectedVars(), rows) != nil {
		return o
	}
	o.total = time.Since(t0)
	o.rows = len(rows)
	o.ok = c.chk.ok(q, rows)
	c.rows = rows
	return o
}

func (wd *world) run(ctx context.Context, q *query, c *client) outcome {
	switch wd.w.Mode {
	case modeClosed:
		return runClosed(ctx, wd, q, c)
	case modeWarm:
		return runTraversal(ctx, wd.engine, q, c)
	default:
		return runTraversal(ctx, wd.freshEngine(), q, c)
	}
}

// sample is one measured query.
type sample struct {
	shape int
	done  time.Duration // completion, since the window opened
	outcome
}

// mark is a round boundary of the first client: time since the window
// opened, and process user+sys CPU since then.
type mark struct{ at, cpu time.Duration }

// window is what one measured window produced.
type window struct {
	samples   []sample
	marks     []mark // the window's opening, then the end of each round
	attempted int
	failed    int
	mallocs   uint64
	allocated uint64      // bytes
	live      *liveLayers // nil unless the recorders were read
}

// quiet is the part of a window its time metrics are taken from.
type quiet struct {
	samples   []sample // correct answers only
	wall, cpu time.Duration
	rounds    int
	// roundMS is every round's wall time per completed query, fastest
	// first: how far apart its ends are shows how disturbed the window was.
	roundMS []float64
}

// keepRounds is the share of a window's rounds that count, fastest first.
const keepRounds = 0.5

// quiet cuts the window into the first client's rounds and keeps the
// faster half of them, by wall time per completed query. The machine
// this runs on is shared: interference arrives in episodes of seconds, slows
// memory-heavy work by a quarter, and only ever adds time, so the slower
// rounds say more about the neighbours than about the engine. Rounds, not
// slices of time, because every round holds the same mix. Counts (allocations,
// documents, rows) do not depend on the neighbours and use the whole window.
func (win *window) quiet() quiet {
	type round struct {
		samples   []sample
		wall, cpu time.Duration
		perQuery  time.Duration
	}
	rounds := make([]round, len(win.marks)-1)
	for i := range rounds {
		rounds[i].wall = win.marks[i+1].at - win.marks[i].at
		rounds[i].cpu = win.marks[i+1].cpu - win.marks[i].cpu
	}
	for _, s := range win.samples {
		// The round a query completed in; other clients' queries that
		// outlive the first client's last round belong to none.
		i := sort.Search(len(rounds), func(i int) bool { return win.marks[i+1].at >= s.done })
		if i < len(rounds) && s.ok {
			rounds[i].samples = append(rounds[i].samples, s)
		}
	}
	for i := range rounds {
		rounds[i].perQuery = time.Duration(math.MaxInt64)
		if n := len(rounds[i].samples); n > 0 {
			rounds[i].perQuery = rounds[i].wall / time.Duration(n)
		}
	}
	sort.SliceStable(rounds, func(a, b int) bool { return rounds[a].perQuery < rounds[b].perQuery })
	var q quiet
	q.rounds = int(math.Ceil(keepRounds * float64(len(rounds))))
	for i, r := range rounds {
		q.roundMS = append(q.roundMS, ms(r.perQuery))
		if i < q.rounds {
			q.samples = append(q.samples, r.samples...)
			q.wall += r.wall
			q.cpu += r.cpu
		}
	}
	return q
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmUp runs the mix once, unmeasured, stopping early once budget is spent
// (a multipod round alone is longer than a third of a run).
func (wd *world) warmUp(ctx context.Context, budget time.Duration) error {
	c := &client{}
	start := time.Now()
	for _, q := range wd.queries {
		if !wd.run(ctx, q, c).ok {
			return fmt.Errorf("%s: wrong answer in warm-up", q.Name)
		}
		if time.Since(start) > budget {
			break
		}
	}
	return nil
}

// enoughRounds reports whether a pass of about d is over after rounds whole
// rounds took elapsed: at least one round, then stop when one more would
// overshoot d by more than stopping undershoots it.
func enoughRounds(rounds int, elapsed, d time.Duration) bool {
	return rounds > 0 && elapsed+elapsed/time.Duration(2*rounds) > d
}

// measure runs whole rounds of the mix on every client until about d has
// passed: a round is every query once, in an order drawn from seed. Whole
// rounds keep the mix, and so every per-query count, the same whatever the
// machine's speed. collectLive also reads each query's recorder.
func (wd *world) measure(ctx context.Context, seed int64, d time.Duration, collectLive bool) window {
	nc := wd.w.Clients
	perClient := make([][]sample, nc)
	var live *liveLayers
	if collectLive {
		live = &liveLayers{}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	marks := []mark{{}}

	var wg sync.WaitGroup
	for ci := 0; ci < nc; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &client{live: live}
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			for rounds := 0; !enoughRounds(rounds, time.Since(start), d); rounds++ {
				for _, qi := range rng.Perm(len(wd.queries)) {
					o := wd.run(ctx, wd.queries[qi], c)
					perClient[ci] = append(perClient[ci], sample{shape: qi, done: time.Since(start), outcome: o})
				}
				if ci == 0 {
					marks = append(marks, mark{time.Since(start), cpuTime() - cpu0})
				}
			}
		}(ci)
	}
	wg.Wait()

	win := window{marks: marks, live: live}
	runtime.ReadMemStats(&m1)
	win.mallocs, win.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for ci := range perClient {
		win.samples = append(win.samples, perClient[ci]...)
	}
	for _, s := range win.samples {
		win.attempted++
		if !s.ok {
			win.failed++
		}
	}
	return win
}
