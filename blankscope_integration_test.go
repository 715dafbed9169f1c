package ltqp_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"ltqp"
)

// TestBlankScopesDistinctAcrossQueriesSharingACache pins the blank-node
// scope rule: every parsed document version gets a label prefix no other
// document of the process has. Two documents both say _:like1. The first
// query fetches /a; the second hits /a in the shared cache and fetches /b.
// Were scopes numbered per query, /b would be labelled like /a was, and the
// second query would intern both _:like1 as one blank node and join across
// the two documents.
func TestBlankScopesDistinctAcrossQueriesSharingACache(t *testing.T) {
	docs := map[string]string{
		"/a": `<#me> <urn:ex:p> _:like1 . _:like1 <urn:ex:q> "a" .`,
		"/b": `<#me> <urn:ex:p> _:like1 . _:like1 <urn:ex:q> "b" .`,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := docs[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(body))
	}))
	defer srv.Close()
	a, b := srv.URL+"/a", srv.URL+"/b"

	cache := ltqp.NewSharedCache(ltqp.SharedCacheOptions{TTL: time.Hour})
	engine := ltqp.New(ltqp.Config{Client: srv.Client(), Lenient: true, SharedCache: cache})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const query = `SELECT ?s ?o WHERE { ?s <urn:ex:p> ?x . ?x <urn:ex:q> ?o }`
	run := func(seeds ...string) []string {
		t.Helper()
		res, err := engine.QueryWithSeeds(ctx, query, seeds)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for r := range res.Results {
			rows = append(rows, r["s"].Value+" "+r["o"].Value)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rows)
		return rows
	}
	run(a)
	got := run(a, b)
	if want := []string{a + "#me a", b + "#me b"}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("second query rows = %q, want %q", got, want)
	}

	blanks := func(url string) map[string]bool {
		res, hit, err := cache.Lookup(ctx, url, url)
		if err != nil || !hit {
			t.Fatalf("%s not cached (hit %v, err %v)", url, hit, err)
		}
		out := map[string]bool{}
		for _, tr := range res.DecodedTriples() {
			for _, term := range []ltqp.Term{tr.S, tr.O} {
				if term.IsBlank() {
					out[term.Value] = true
				}
			}
		}
		return out
	}
	cached, fresh := blanks(a), blanks(b)
	if len(cached) == 0 || len(fresh) == 0 {
		t.Fatalf("no blank nodes in the cached documents: %v %v", cached, fresh)
	}
	for label := range fresh {
		if cached[label] {
			t.Errorf("fresh document %s reuses the cached %s's blank label %q", b, a, label)
		}
	}
}
