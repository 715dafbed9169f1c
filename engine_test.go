package ltqp

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"ltqp/internal/obs"
	"ltqp/internal/rdf"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

// newTestEnv builds a small simulated Solid environment.
func newTestEnv(t testing.TB) *simenv.Env {
	t.Helper()
	env := simenv.New(solidbench.SmallConfig())
	t.Cleanup(env.Close)
	return env
}

func newTestEngine(env *simenv.Env) *Engine {
	return New(Config{Client: env.Client(), Lenient: true})
}

// selectAll runs a query to completion like Engine.Select and also returns
// the execution, for the tests that inspect it.
func selectAll(ctx context.Context, e *Engine, query string, seeds []string) ([]Binding, *Result, error) {
	x, err := e.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		return nil, nil, err
	}
	var all []Binding
	for b := range x.Results {
		all = append(all, b)
	}
	if err := x.Err(); err != nil {
		return all, x, err
	}
	return all, x, ctx.Err()
}

func TestDiscover1PostsOfPerson(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, x, err := selectAll(ctx, e, q.Text, nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Expected: every non-image post by the person.
	want := 0
	for _, p := range env.Dataset.Posts {
		if p.Creator == q.Person && p.Image == "" {
			want++
		}
	}
	if len(results) != want {
		t.Errorf("results = %d, want %d", len(results), want)
	}
	for _, b := range results {
		if !b.Has("messageId") || !b.Has("messageContent") || !b.Has("messageCreationDate") {
			t.Errorf("incomplete binding: %v", b)
		}
	}
	// Seeds were derived from the query (the person's WebID document).
	if len(x.Seeds) != 1 || !strings.Contains(x.Seeds[0], "/profile/card") {
		t.Errorf("seeds = %v", x.Seeds)
	}
	// Traversal stayed within (mostly) one pod.
	if pods := x.Metrics().PodsTouched(); pods != 1 {
		t.Errorf("pods touched = %d, want 1 (single-pod query)", pods)
	}
}

func TestDiscover6ForumsOfPerson(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Discover(6, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := e.Select(ctx, q.Text)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Soundness: every reported forum must really contain a message by the
	// person. Completeness over the reachable subweb: at least the forums
	// in the person's own pod that contain their messages must be found
	// (traversal may legitimately also reach friends' walls the person
	// posted on, via hasCreator links — that is the point of LTQP).
	validForums := map[string]bool{} // forumId → contains a post by person
	ownForums := map[string]bool{}
	for fi, f := range env.Dataset.Forums {
		for _, pi := range f.Posts {
			if env.Dataset.Posts[pi].Creator == q.Person {
				id := rdf.Long(env.Dataset.Forums[fi].ID).Value
				validForums[id] = true
				if f.Moderator == q.Person {
					ownForums[id] = true
				}
				break
			}
		}
	}
	gotForums := map[string]bool{}
	for _, b := range results {
		id := b["forumId"].Value
		gotForums[id] = true
		if !validForums[id] {
			t.Errorf("unsound result: forum %s has no message by the person", id)
		}
		if !strings.Contains(b["forumTitle"].Value, "of") {
			t.Errorf("odd title %v", b["forumTitle"])
		}
	}
	for id := range ownForums {
		if !gotForums[id] {
			t.Errorf("own-pod forum %s not found", id)
		}
	}
}

func TestDiscover8TraversesMultiplePods(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Discover(8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, x, err := selectAll(ctx, e, q.Text, nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(results) == 0 {
		t.Error("Discover 8 should produce results")
	}
	if pods := x.Metrics().PodsTouched(); pods < 2 {
		t.Errorf("pods touched = %d, want >= 2 (multi-pod traversal, Fig. 5)", pods)
	}
}

func TestFirstResultBeforeTraversalCompletes(t *testing.T) {
	// The headline claim: first results arrive while the link queue is
	// still being processed.
	env := newTestEnv(t)
	env.PodServer.Latency = 5 * time.Millisecond
	e := newTestEngine(env)
	q := env.Dataset.Discover(2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	x, err := e.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	var first rdf.Binding
	for b := range x.Results {
		if first == nil {
			first = b
			break
		}
	}
	if first == nil {
		t.Fatal("no results")
	}
	reqsAtFirst := len(x.Metrics().Requests())
	for range x.Results {
	}
	reqsAtEnd := len(x.Metrics().Requests())
	if reqsAtFirst >= reqsAtEnd {
		t.Errorf("first result only after all %d requests (at %d); pipeline not incremental",
			reqsAtEnd, reqsAtFirst)
	}
	if ttfr, ok := x.Metrics().TimeToFirstResult(); !ok || ttfr <= 0 {
		t.Errorf("TTFR = %v, %v", ttfr, ok)
	}
}

func TestExplicitSeedsOverrideDerived(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Discover(1, 1)
	seed := env.Dataset.PodBase(q.Person) + "profile/card"
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	x, err := e.QueryWithSeeds(ctx, q.Text, []string{seed})
	if err != nil {
		t.Fatal(err)
	}
	for range x.Results {
	}
	if len(x.Seeds) != 1 || x.Seeds[0] != seed {
		t.Errorf("seeds = %v", x.Seeds)
	}
}

func TestNoSeedsError(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	_, err := e.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("err = %v, want seed error", err)
	}
}

func TestAskQuery(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Catalog()[36] // Short 5: ASK for image posts
	if !strings.HasPrefix(q.Name, "Short 5") {
		t.Fatalf("catalog order changed: %s", q.Name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ok, err := e.Ask(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: does the person have an image post?
	want := false
	for _, p := range env.Dataset.Posts {
		if p.Creator == q.Person && p.Image != "" {
			want = true
		}
	}
	if ok != want {
		t.Errorf("ASK = %v, want %v", ok, want)
	}
}

func TestConstructQuery(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	q := env.Dataset.Discover(1, 1)
	v := solidbench.NewVocab(env.Dataset.Config.Host)
	construct := strings.Replace(q.Text,
		"SELECT ?messageId ?messageCreationDate ?messageContent WHERE",
		"CONSTRUCT { ?message <"+v.NS()+"content> ?messageContent } WHERE", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	triples, err := e.Construct(ctx, construct)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) == 0 {
		t.Error("CONSTRUCT produced no triples")
	}
	for _, tr := range triples {
		if !tr.IsGround() {
			t.Errorf("non-ground construct triple: %v", tr)
		}
	}
}

func TestLenientToleratesDeadLinks(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	// Tag and place IRIs resolve to 404 on the simulated host; lenient
	// traversal must still answer.
	q := env.Dataset.Discover(3, 1) // tags query reaches tag IRIs via cMatch
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, x, err := selectAll(ctx, e, q.Text, nil)
	if err != nil {
		t.Fatalf("lenient Select failed: %v", err)
	}
	stats := x.Metrics().Stats()
	if stats.Failed == 0 {
		t.Log("note: no failed requests observed (tag IRIs may not have been traversed)")
	}
}

func TestNonLenientFailsOnDeadSeed(t *testing.T) {
	env := newTestEnv(t)
	e := New(Config{Client: env.Client(), Lenient: false})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := e.Select(ctx, `SELECT ?o WHERE { <`+env.Server.URL+`/pods/nope/profile/card#me> ?p ?o }`)
	if err == nil {
		t.Error("non-lenient query over a 404 seed should fail")
	}
}

func TestMaxDocumentsCap(t *testing.T) {
	env := newTestEnv(t)
	e := New(Config{Client: env.Client(), Lenient: true, MaxDocuments: 3})
	q := env.Dataset.Discover(2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, x, err := selectAll(ctx, e, q.Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(x.Metrics().Requests()); got > 3 {
		t.Errorf("requests = %d, want <= 3", got)
	}
}

func TestAuthenticatedQuerySeesPrivateDocuments(t *testing.T) {
	cfg := solidbench.SmallConfig()
	cfg.PrivateFraction = 0.99 // almost all post documents are private
	env := simenv.New(cfg)
	defer env.Close()
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Anonymous engine: post documents are behind 401s.
	anon := New(Config{Client: env.Client(), Lenient: true})
	anonResults, err := anon.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}

	// Authenticated as the person: full access.
	authed := New(Config{Client: env.Client(), Lenient: true, Auth: env.CredentialsFor(q.Person)})
	authedResults, err := authed.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(authedResults) <= len(anonResults) {
		t.Errorf("auth should reveal more results: anon=%d authed=%d",
			len(anonResults), len(authedResults))
	}
}

func TestWrongCredentialsAreForbidden(t *testing.T) {
	cfg := solidbench.SmallConfig()
	cfg.PrivateFraction = 0.99
	env := simenv.New(cfg)
	defer env.Close()
	q := env.Dataset.Discover(1, 1)
	// A non-friend's credentials must not unlock the person's documents.
	stranger := (q.Person + 3) % len(env.Dataset.Persons)
	isFriend := false
	for _, f := range env.Dataset.Persons[q.Person].Friends {
		if f == stranger {
			isFriend = true
		}
	}
	if isFriend {
		t.Skip("picked a friend; small graph too dense")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e := New(Config{Client: env.Client(), Lenient: true, Auth: env.CredentialsFor(stranger)})
	_, x, err := selectAll(ctx, e, q.Text, nil)
	if err != nil {
		t.Fatal(err)
	}
	forbidden := 0
	for _, r := range x.Metrics().Requests() {
		if r.Status == 403 {
			forbidden++
		}
	}
	if forbidden == 0 {
		t.Error("expected 403s for the stranger's credentials")
	}
}

func TestExtractorConfigurationLDPOnly(t *testing.T) {
	env := newTestEnv(t)
	e := New(Config{Client: env.Client(), Lenient: true, Strategy: StrategyLDPOnly})
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := e.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("LDP-only traversal should still find the pod's posts")
	}
}

func TestMaxDepthBoundsTraversal(t *testing.T) {
	env := newTestEnv(t)
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	requestsAt := func(depth int) int {
		e := New(Config{Client: env.Client(), Lenient: true, MaxDepth: depth})
		_, x, err := selectAll(ctx, e, q.Text, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range x.Metrics().Requests() {
			_ = r
		}
		return len(x.Metrics().Requests())
	}
	d1 := requestsAt(1) // seed + its direct links only
	d3 := requestsAt(3)
	unbounded := requestsAt(0)
	if d1 >= d3 {
		t.Errorf("depth 1 (%d reqs) should fetch less than depth 3 (%d)", d1, d3)
	}
	if d3 > unbounded {
		t.Errorf("depth 3 (%d) exceeds unbounded (%d)", d3, unbounded)
	}
}

func TestGraphBindsDocumentProvenance(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	v := solidbench.NewVocab(env.Dataset.Config.Host)
	webID := env.Dataset.WebID(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// GRAPH ?g binds each message to the document it was dereferenced from.
	results, err := e.Select(ctx, `
PREFIX snvoc: <`+v.NS()+`>
SELECT ?m ?g WHERE {
  GRAPH ?g { ?m snvoc:hasCreator <`+webID+`> }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no provenance results")
	}
	pod := env.Dataset.PodBase(0)
	for _, b := range results {
		g := b["g"]
		if !g.IsIRI() || !strings.HasPrefix(g.Value, pod) {
			t.Errorf("provenance = %v, want a document under %s", g, pod)
		}
		// The message fragment must live in its provenance document.
		if !strings.HasPrefix(b["m"].Value, g.Value) {
			t.Errorf("message %v not in document %v", b["m"], g)
		}
	}

	// A constant GRAPH term restricts to that document.
	doc := rdf.StripFragment(rdf.NewIRI(results[0]["m"].Value)).Value
	restricted, err := e.Select(ctx, `
PREFIX snvoc: <`+v.NS()+`>
SELECT ?m WHERE {
  GRAPH <`+doc+`> { ?m snvoc:hasCreator <`+webID+`> }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted) == 0 || len(restricted) >= len(results) {
		t.Errorf("restricted = %d of %d", len(restricted), len(results))
	}
	for _, b := range restricted {
		if !strings.HasPrefix(b["m"].Value, doc) {
			t.Errorf("message %v outside %s", b["m"], doc)
		}
	}
}

func TestContextCancellationMidTraversal(t *testing.T) {
	env := newTestEnv(t)
	env.PodServer.Latency = 20 * time.Millisecond // slow enough to cancel mid-flight
	e := newTestEngine(env)
	q := env.Dataset.Discover(8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	x, err := e.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel shortly after traversal starts.
	time.Sleep(50 * time.Millisecond)
	cancel()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-x.Results:
			if !ok {
				return // stream closed promptly after cancellation
			}
		case <-deadline:
			t.Fatal("Results did not close after context cancellation")
		}
	}
}

// TestCloseWithoutDrainLeavesNothingBehind: a caller that reads one row and
// then closes the query without draining Results (what WaitWithTimeout does
// on timeout) must not strand the goroutine forwarding the rows. The next
// row is pending when Close comes; the query must still finish — its
// goroutines exit, and it leaves the in-flight gauge and the tracker.
func TestCloseWithoutDrainLeavesNothingBehind(t *testing.T) {
	env := newTestEnv(t)
	observer := obs.NewObserver()
	e := New(Config{Client: env.Client(), Lenient: true, Obs: observer})
	var before int
	settle(t, "goroutine count does not settle before the query", func() bool {
		n := runtime.NumGoroutine()
		stable := n == before
		before = n
		return stable
	})
	x, err := e.Query(context.Background(), env.Dataset.Discover(1, 1).Text)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-x.Results; !ok {
		t.Fatal("no first row")
	}
	// A row is recorded right before it is handed over: once the second is,
	// the forwarding goroutine is on its way to, or blocked in, the send.
	settle(t, "no second row", func() bool { return len(x.Metrics().ResultTimes()) >= 2 })
	x.Close()
	settle(t, "goroutines outlive the closed query", func() bool {
		env.Client().CloseIdleConnections()
		return runtime.NumGoroutine() <= before
	})
	settle(t, "the closed query is still in flight", func() bool {
		return observer.Metrics.QueriesInFlight.Value() == 0 && len(observer.Tracker.InFlight()) == 0
	})
}
