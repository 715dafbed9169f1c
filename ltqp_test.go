package ltqp

import (
	"context"
	"strings"
	"testing"
	"time"

	"ltqp/internal/linkqueue"
	"ltqp/internal/rdf"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

func testEnv(t testing.TB) *simenv.Env {
	t.Helper()
	env := simenv.New(solidbench.SmallConfig())
	t.Cleanup(env.Close)
	return env
}

func TestEngineSelectDiscover(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true})
	q := env.Dataset.Discover(6, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := engine.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, b := range results {
		if !b.Has("forumId") || !b.Has("forumTitle") {
			t.Errorf("incomplete binding %v", b)
		}
	}
}

func TestEngineStreamingAndClose(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true})
	q := env.Dataset.Discover(2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Take one result, then abort.
	b, ok := <-res.Results
	if !ok {
		t.Fatal("no first result")
	}
	if b.Len() == 0 {
		t.Error("empty binding")
	}
	res.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-res.Results:
			if !ok {
				return // closed promptly
			}
		case <-deadline:
			t.Fatal("Results did not close after Close()")
		}
	}
}

func TestEngineStrategies(t *testing.T) {
	env := testEnv(t)
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, s := range []Strategy{StrategySolid, StrategySolidNoLDP, StrategyLDPOnly, StrategyCMatch} {
		t.Run(s.String(), func(t *testing.T) {
			engine := New(Config{Client: env.Client(), Lenient: true, Strategy: s})
			results, err := engine.Select(ctx, q.Text)
			if err != nil {
				t.Fatal(err)
			}
			if s != StrategyCMatch && len(results) == 0 {
				t.Errorf("strategy %s found no results", s)
			}
		})
	}
}

func TestStrategyCAllBounded(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true, Strategy: StrategyCAll, MaxDocuments: 50})
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := engine.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.cfg.MaxDocuments; n != 50 {
		t.Errorf("MaxDocuments = %d", n)
	}
}

func TestPrioritizedQueue(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true, QueuePolicy: "guided"})
	q := env.Dataset.Discover(1, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := engine.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("prioritized queue found no results")
	}
}

// An unknown queue policy fails every query with an error naming it, while
// "" (FIFO), "fifo" and "guided" run and agree on the answer.
func TestQueuePolicyValidated(t *testing.T) {
	env := testEnv(t)
	q := env.Dataset.Discover(1, 2).Text
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := New(Config{Client: env.Client(), QueuePolicy: "nonsense"}).Query(ctx, q); err == nil ||
		!strings.Contains(err.Error(), `"nonsense"`) {
		t.Errorf(`QueuePolicy "nonsense": err = %v, want an error naming the value`, err)
	}
	counts := map[string]int{}
	for policy, want := range map[string]linkqueue.Policy{
		"": linkqueue.PolicyFIFO, "fifo": linkqueue.PolicyFIFO, "guided": linkqueue.PolicyGuided,
	} {
		res, err := New(Config{Client: env.Client(), Lenient: true, QueuePolicy: policy}).Query(ctx, q)
		if err != nil {
			t.Fatalf("QueuePolicy %q: %v", policy, err)
		}
		for range res.Results {
			counts[policy]++
		}
		if res.queuePolicy != want {
			t.Errorf("QueuePolicy %q ran as %q, want %q", policy, res.queuePolicy, want)
		}
	}
	if counts[""] == 0 || counts["fifo"] != counts[""] || counts["guided"] != counts[""] {
		t.Errorf("result counts by policy = %v, want one nonzero count", counts)
	}
}

func TestBindingJSON(t *testing.T) {
	b := Binding{
		"forumId":    rdf.Long(755914244147),
		"forumTitle": rdf.NewLiteral("Album 11 of Eli Peretz"),
		"who":        rdf.NewIRI("https://pod.example/card#me"),
		"lang":       rdf.NewLangLiteral("hoi", "nl"),
	}
	s := BindingJSON(b)
	for _, want := range []string{
		`"forumId":"\"755914244147\"^^http://www.w3.org/2001/XMLSchema#long`,
		`"forumTitle":"\"Album 11 of Eli Peretz\""`,
		`"who":"https://pod.example/card#me"`,
		`"lang":"\"hoi\"@nl"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("BindingJSON = %s\nmissing %s", s, want)
		}
	}
}

func TestWaitWithTimeout(t *testing.T) {
	env := testEnv(t)
	env.PodServer.Latency = 2 * time.Millisecond
	engine := New(Config{Client: env.Client(), Lenient: true})
	q := env.Dataset.Discover(2, 1)
	res, err := engine.Query(context.Background(), q.Text)
	if err != nil {
		t.Fatal(err)
	}
	got := WaitWithTimeout(res, 30*time.Second)
	if len(got) == 0 {
		t.Error("WaitWithTimeout returned nothing")
	}
}

func TestPlanString(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true})
	q := env.Dataset.Discover(6, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := engine.Query(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	plan := res.PlanString()
	if !strings.Contains(plan, "pattern(") || !strings.Contains(plan, "distinct(") {
		t.Errorf("plan = %s", plan)
	}
	// Zero-knowledge planning: the seed-anchored hasCreator pattern (its
	// object is the seed WebID) must be the first (innermost-left) scan.
	firstPattern := plan[strings.Index(plan, "pattern("):]
	if !strings.Contains(firstPattern[:strings.Index(firstPattern, ")")+1], "hasCreator") {
		t.Errorf("seed-anchored pattern not scheduled first:\n%s", plan)
	}
	for range res.Results {
	}
}

func TestDefaultSeedsFromConfig(t *testing.T) {
	env := testEnv(t)
	q := env.Dataset.Discover(1, 1)
	seed := env.Dataset.PodBase(q.Person) + "profile/card"
	engine := New(Config{Client: env.Client(), Lenient: true, Seeds: []string{seed}})
	// A query that mentions no IRIs still runs, using the default seeds.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	vocab := solidbench.NewVocab(env.Dataset.Config.Host)
	results, err := engine.Select(ctx, `
PREFIX snvoc: <`+vocab.NS()+`>
SELECT ?m WHERE { ?m snvoc:hasCreator ?c } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Error("no results via default seeds")
	}
}

func TestDocumentCacheAcrossQueries(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true, SharedCache: NewSharedCache(SharedCacheOptions{})})
	q := env.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// First run: all network.
	env.PodServer.ResetRequestCount()
	res1, err := engine.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	firstHits := env.PodServer.RequestCount()

	// Second run: served from the document cache.
	env.PodServer.ResetRequestCount()
	res2, err := engine.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	secondHits := env.PodServer.RequestCount()

	if len(res1) != len(res2) {
		t.Errorf("results differ across cached runs: %d vs %d", len(res1), len(res2))
	}
	if firstHits == 0 {
		t.Fatal("first run hit no server")
	}
	// Failed fetches (dead vocabulary IRIs) are not cached and retry;
	// everything that parsed must come from the cache.
	if secondHits > firstHits/5 {
		t.Errorf("second run still made %d network requests (first run: %d)", secondHits, firstHits)
	}
}

func TestCacheRespectsIdentity(t *testing.T) {
	// A document cached for one agent must not be served to another.
	env := testEnv(t)
	// Rebuild with private docs.
	_ = env
	cfg2 := solidbench.SmallConfig()
	cfg2.PrivateFraction = 0.99
	env2 := simenv.New(cfg2)
	t.Cleanup(env2.Close)
	q := env2.Dataset.Discover(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Owner warms the cache...
	shared := NewSharedCache(SharedCacheOptions{})
	owner := New(Config{Client: env2.Client(), Lenient: true, SharedCache: shared,
		Auth: env2.CredentialsFor(q.Person)})
	ownerResults, err := owner.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// ...but an anonymous engine on the same cache sees less: keys are
	// scoped to the requesting identity.
	anon := New(Config{Client: env2.Client(), Lenient: true, SharedCache: shared})
	anonResults, err := anon.Select(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(anonResults) >= len(ownerResults) {
		t.Errorf("anon (%d) should see fewer results than owner (%d)", len(anonResults), len(ownerResults))
	}
}

func TestFacadeConstructAndDescribe(t *testing.T) {
	env := testEnv(t)
	engine := New(Config{Client: env.Client(), Lenient: true})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v := solidbench.NewVocab(env.Dataset.Config.Host)
	webID := env.Dataset.WebID(0)

	triples, err := engine.Construct(ctx, `PREFIX snvoc: <`+v.NS()+`>
CONSTRUCT { ?m snvoc:content ?c } WHERE { ?m snvoc:hasCreator <`+webID+`>; snvoc:content ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) == 0 {
		t.Error("no construct triples")
	}

	desc, err := engine.Describe(ctx, `DESCRIBE <`+webID+`>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) == 0 {
		t.Error("empty description")
	}

	ok, err := engine.Ask(ctx, `PREFIX snvoc: <`+v.NS()+`>
ASK { ?m snvoc:hasCreator <`+webID+`> }`)
	if err != nil || !ok {
		t.Errorf("ask = %v, %v", ok, err)
	}
}

func TestCommonPrefixesIsCopy(t *testing.T) {
	p := CommonPrefixes()
	if p["ldp"] == "" || p["snvoc"] == "" {
		t.Errorf("prefixes = %v", p)
	}
	p["ldp"] = "mutated"
	if CommonPrefixes()["ldp"] == "mutated" {
		t.Error("CommonPrefixes must return a copy")
	}
}

func TestSortBindings(t *testing.T) {
	bs := []Binding{
		{"x": rdf.NewLiteral("b")},
		{"x": rdf.NewLiteral("a")},
	}
	SortBindings(bs, []string{"x"})
	if bs[0]["x"].Value != "a" {
		t.Errorf("sort order = %v", bs)
	}
}
