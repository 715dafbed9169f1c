package baseline

import (
	"context"
	"testing"
	"time"

	"ltqp/internal/solidbench"
)

func TestCentralizedStoreAnswersDiscover(t *testing.T) {
	ds := solidbench.Generate(solidbench.SmallConfig())
	pods := ds.BuildPods()
	st := CentralizedStore(pods)
	if st.Len() == 0 {
		t.Fatal("empty centralized store")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.WaitClosed(ctx); err != nil {
		t.Fatalf("store must be closed: %v", err)
	}
	q := ds.Discover(1, 1)
	results, err := RunQuery(ctx, st, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle sees everything: exactly the person's non-image posts.
	want := 0
	for _, p := range ds.Posts {
		if p.Creator == q.Person && p.Image == "" {
			want++
		}
	}
	if len(results) != want {
		t.Errorf("oracle results = %d, want %d", len(results), want)
	}
}

// Every pod labels its likes _:like1, _:like2, …; an oracle that merged equal
// labels from different documents joined one person's like to another's
// post (2011 rows here, where the engine and a document-scoped oracle give
// 1846).
func TestCentralizedStoreScopesBlankNodes(t *testing.T) {
	cfg := solidbench.DefaultConfig()
	cfg.Persons = 12
	ds := solidbench.Generate(cfg)
	st := CentralizedStore(ds.BuildPods())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := RunQuery(ctx, st, ds.Discover(8, 2).Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1846 {
		t.Errorf("Discover 8.2 over the centralized store = %d rows, want 1846", len(results))
	}
}

func TestOracleIsCompleteSupersetOfTraversal(t *testing.T) {
	// Discover 6 over the oracle must return at least as many distinct
	// forums as any traversal can find (traversal sees a reachable
	// subweb).
	ds := solidbench.Generate(solidbench.SmallConfig())
	st := CentralizedStore(ds.BuildPods())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	q := ds.Discover(6, 1)
	results, err := RunQuery(ctx, st, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: all forums containing a message by the person.
	want := map[int64]bool{}
	for fi, f := range ds.Forums {
		for _, pi := range f.Posts {
			if ds.Posts[pi].Creator == q.Person {
				want[ds.Forums[fi].ID] = true
				break
			}
		}
	}
	got := map[string]bool{}
	for _, b := range results {
		got[b["forumId"].Value] = true
	}
	if len(got) != len(want) {
		t.Errorf("oracle forums = %d, want %d", len(got), len(want))
	}
}

func TestRunQueryParseError(t *testing.T) {
	ds := solidbench.Generate(solidbench.SmallConfig())
	st := CentralizedStore(ds.BuildPods())
	if _, err := RunQuery(context.Background(), st, "NOT SPARQL"); err == nil {
		t.Error("parse error expected")
	}
}
