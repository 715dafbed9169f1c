package ltqp_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/faultinject"
	"ltqp/internal/obs"
	"ltqp/internal/podserver"
	"ltqp/internal/simenv"
	"ltqp/internal/solid"
	"ltqp/internal/solidbench"
)

// The adversarial suite drives the engine against hostile pods serving the
// attack classes of the LTQP security analysis — link bombs, traversal
// loops, cross-origin spoofing, slow-loris and oversized documents — and
// asserts each one is contained by the traversal defenses: bounded fetches,
// a typed trip in the degradation report (or a typed error in strict mode),
// and an unaffected benign sibling query.

const seeAlsoQuery = `SELECT ?o WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#seeAlso> ?o }`

// hostileServer mounts an adversary on a live origin with request counting.
func hostileServer(t *testing.T, adv *faultinject.Adversary) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		adv.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

func drain(t *testing.T, res *ltqp.Result) int {
	t.Helper()
	n := 0
	for range res.Results {
		n++
	}
	return n
}

func hasTrip(deg ltqp.Degradation, kind string) bool {
	for _, trip := range deg.LimitTrips {
		if trip.Kind == kind {
			return true
		}
	}
	return false
}

func TestAdversarialLinkBombContained(t *testing.T) {
	adv := faultinject.NewAdversary(7)
	adv.Fanout, adv.Depth = 12, 3 // 1885 documents if followed blindly
	srv, requests := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{
		Client:  srv.Client(),
		Lenient: true,
		Limits: ltqp.TraversalLimits{
			MaxLinksPerDoc: 4,
			MaxQueuedLinks: 40,
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.BombRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatalf("lenient bomb traversal must not fail: %v", err)
	}
	if got := requests.Load(); got > 45 {
		t.Errorf("bomb drew %d fetches; fanout/queue caps should hold it near 41", got)
	}
	deg := res.Degradation()
	if !hasTrip(deg, "fanout") {
		t.Errorf("degradation misses the fanout trip: %+v", deg.LimitTrips)
	}
	if !deg.Degraded() {
		t.Error("a tripped limit must mark the result degraded")
	}
}

func TestAdversarialLinkBombStrictTypedError(t *testing.T) {
	adv := faultinject.NewAdversary(7)
	srv, _ := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{
		Client: srv.Client(),
		Limits: ltqp.TraversalLimits{MaxLinksPerDoc: 3},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.BombRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	var limitErr *ltqp.TraversalLimitError
	if !errors.As(res.Err(), &limitErr) {
		t.Fatalf("strict mode should fail with *TraversalLimitError, got %v", res.Err())
	}
	if limitErr.Trip.Kind != "fanout" {
		t.Errorf("trip kind = %q, want fanout", limitErr.Trip.Kind)
	}
}

func TestAdversarialPerOriginBudget(t *testing.T) {
	adv := faultinject.NewAdversary(3)
	adv.Fanout, adv.Depth = 8, 4
	srv, requests := hostileServer(t, adv)

	bus := ltqp.NewEventBus()
	sub := bus.Subscribe(1 << 16)
	defer sub.Close()
	engine := ltqp.New(ltqp.Config{
		Client:  srv.Client(),
		Lenient: true,
		Limits:  ltqp.TraversalLimits{MaxDocsPerOrigin: 6},
		Events:  bus,
		Explain: true,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.BombRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatalf("lenient budget traversal must not fail: %v", err)
	}
	if got := requests.Load(); got > 6 {
		t.Errorf("origin served %d fetches over a budget of 6", got)
	}
	if !hasTrip(res.Degradation(), "max-docs-per-origin") {
		t.Errorf("degradation misses the per-origin trip: %+v", res.Degradation().LimitTrips)
	}
	// Links refused at pop time are reported once, as link_pruned events, and
	// the explain topology (a fold of those events) marks their edges.
	refused := 0
	for _, ev := range sub.Drain() {
		if ev.Kind == obs.EventLinkPruned && ev.Detail == obs.FateOriginBudgetPruned {
			refused++
		}
	}
	edges := 0
	for _, e := range res.Explain().Topology.Edges {
		if e.Status == obs.EdgeLimitPruned {
			edges++
		}
	}
	if refused == 0 || edges != refused {
		t.Errorf("%d origin-budget link_pruned events, %d limit-pruned edges: want equal and non-zero", refused, edges)
	}
}

// A traversal loop spelled through scheme/host-case and default-port URL
// aliases must terminate through normalized dedup alone — no limits set.
func TestAdversarialLoopTerminates(t *testing.T) {
	adv := faultinject.NewAdversary(11)
	srv, requests := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{Client: srv.Client(), Lenient: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.LoopRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	n := drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// The ring has LoopLen documents; every alias re-fetch would show up as
	// an extra request. The port-variant aliases (host:PORT vs host) only
	// collapse for default ports, which httptest does not use — so the
	// uppercase-host aliases are the ones dedup must kill here.
	if got := requests.Load(); got > int64(adv.LoopLen+2) {
		t.Errorf("loop of %d drew %d fetches; aliases must deduplicate", adv.LoopLen, got)
	}
	if n == 0 {
		t.Error("loop documents carry seeAlso triples; expected results")
	}
}

// Cross-origin spoofing: a hostile pod asserting triples about a victim
// origin and linking into it. Scoped to its seeds, the traversal must never
// touch the victim.
func TestAdversarialSpoofScopeContained(t *testing.T) {
	victim := podserver.New()
	victim.AddDocument("http://victim.invalid/profile/card",
		"<http://victim.invalid/profile/card#me> <http://xmlns.com/foaf/0.1/name> \"Real Name\" .",
		solid.Access{Public: true})
	vsrv := httptest.NewServer(victim)
	t.Cleanup(vsrv.Close)

	adv := faultinject.NewAdversary(5)
	adv.SpoofTarget = vsrv.URL
	srv, _ := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{
		Client:  srv.Client(),
		Lenient: true,
		Limits:  ltqp.TraversalLimits{ScopeToSeeds: true},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.SpoofRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := victim.RequestCount(); got != 0 {
		t.Errorf("victim origin received %d requests; scope should have pruned them all", got)
	}
	if !hasTrip(res.Degradation(), "scope") {
		t.Errorf("degradation misses the scope trip: %+v", res.Degradation().LimitTrips)
	}
}

func TestAdversarialSlowLorisCutOff(t *testing.T) {
	adv := faultinject.NewAdversary(13)
	adv.TrickleDelay = 25 * time.Millisecond
	adv.TrickleBytes = 400 // ~10s if read to completion
	srv, _ := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{
		Client:  srv.Client(),
		Lenient: true,
		Limits:  ltqp.TraversalLimits{BodyTimeout: 250 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.SlowRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatalf("lenient slow-loris traversal must not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("slow-loris held the query for %v; cutoff should bound it near 250ms", elapsed)
	}
	if !hasTrip(res.Degradation(), "slow-body") {
		t.Errorf("degradation misses the slow-body trip: %+v", res.Degradation().LimitTrips)
	}
}

func TestAdversarialOversizeRejected(t *testing.T) {
	adv := faultinject.NewAdversary(17)
	adv.OversizeBytes = 256 << 10
	srv, _ := hostileServer(t, adv)

	engine := ltqp.New(ltqp.Config{
		Client:  srv.Client(),
		Lenient: true,
		Limits:  ltqp.TraversalLimits{MaxDocBytes: 4096},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{adv.BigRoot(srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	if err := res.Err(); err != nil {
		t.Fatalf("lenient oversize traversal must not fail: %v", err)
	}
	if !hasTrip(res.Degradation(), "doc-bytes") {
		t.Errorf("degradation misses the doc-bytes trip: %+v", res.Degradation().LimitTrips)
	}
}

// The defenses must not perturb benign traffic: the same Discover query,
// with and without every defense armed (and a hostile fallback mounted on
// the pod origin), returns identical result counts.
func TestAdversarialBenignSiblingUnaffected(t *testing.T) {
	env := simenv.New(solidbench.SmallConfig())
	t.Cleanup(env.Close)
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	baselineEngine := ltqp.New(ltqp.Config{Client: env.Client(), Lenient: true})
	res, err := baselineEngine.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	baseline := drain(t, res)
	if res.Err() != nil {
		t.Fatal(res.Err())
	}
	if baseline == 0 {
		t.Fatal("baseline Discover found nothing")
	}

	// Mount the adversary on the same origin — benign documents never link
	// into /adv/, so traversal must not touch it.
	adv := faultinject.NewAdversary(23)
	env.PodServer.Fallback = adv

	guardedEngine := ltqp.New(ltqp.Config{
		Client:  env.Client(),
		Lenient: true,
		Limits: ltqp.TraversalLimits{
			MaxDocsPerOrigin:     10_000,
			MaxInFlightPerOrigin: 4,
			MaxLinksPerDoc:       500,
			MaxQueuedLinks:       10_000,
			ScopeToSeeds:         true,
			MaxDocBytes:          8 << 20,
			BodyTimeout:          10 * time.Second,
		},
	})
	res, err = guardedEngine.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	guarded := drain(t, res)
	if res.Err() != nil {
		t.Fatal(res.Err())
	}
	if guarded != baseline {
		t.Errorf("defenses changed a benign query: %d results with, %d without", guarded, baseline)
	}
	if deg := res.Degradation(); len(deg.LimitTrips) != 0 {
		t.Errorf("benign query tripped limits: %+v", deg.LimitTrips)
	}
}

// TestAdversarialDegradationReport runs every attack class once under a
// fully-defended lenient engine and — with LTQP_ADVERSARIAL_ARTIFACT set —
// writes the per-attack degradation report the CI adversarial-smoke job
// archives: which limits tripped, how many fetches the attacker extracted,
// and that the query still terminated cleanly.
func TestAdversarialDegradationReport(t *testing.T) {
	adv := faultinject.NewAdversary(42)
	adv.TrickleDelay = 25 * time.Millisecond
	adv.TrickleBytes = 400
	srv, requests := hostileServer(t, adv)

	limits := ltqp.TraversalLimits{
		MaxDocsPerOrigin: 25,
		MaxLinksPerDoc:   5,
		MaxQueuedLinks:   60,
		MaxDocBytes:      4096,
		BodyTimeout:      250 * time.Millisecond,
	}
	type attackReport struct {
		Attack   string           `json:"attack"`
		Requests int64            `json:"requests"`
		Results  int              `json:"results"`
		Trips    []ltqp.LimitTrip `json:"trips"`
	}
	var reports []attackReport
	for _, a := range []struct {
		name string
		seed string
	}{
		{"link-bomb", adv.BombRoot(srv.URL)},
		{"loop", adv.LoopRoot(srv.URL)},
		{"slow-loris", adv.SlowRoot(srv.URL)},
		{"oversize", adv.BigRoot(srv.URL)},
	} {
		requests.Store(0)
		engine := ltqp.New(ltqp.Config{Client: srv.Client(), Lenient: true, Limits: limits})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := engine.QueryWithSeeds(ctx, seeAlsoQuery, []string{a.seed})
		if err != nil {
			cancel()
			t.Fatalf("%s: %v", a.name, err)
		}
		n := drain(t, res)
		cancel()
		if err := res.Err(); err != nil {
			t.Fatalf("%s: defended lenient engine failed: %v", a.name, err)
		}
		reports = append(reports, attackReport{
			Attack:   a.name,
			Requests: requests.Load(),
			Results:  n,
			Trips:    res.Degradation().LimitTrips,
		})
	}
	for _, r := range reports {
		t.Logf("%-10s requests=%3d results=%3d trips=%d", r.Attack, r.Requests, r.Results, len(r.Trips))
		if r.Attack != "loop" && len(r.Trips) == 0 {
			t.Errorf("%s: no limit tripped under attack", r.Attack)
		}
	}
	if path := os.Getenv("LTQP_ADVERSARIAL_ARTIFACT"); path != "" {
		out, err := json.MarshalIndent(map[string]interface{}{
			"limits":  limits,
			"attacks": reports,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}
