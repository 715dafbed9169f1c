package linkqueue

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://host/x", "http://host/x"},
		{"HTTP://Host/x", "http://host/x"},
		{"http://host:80/x", "http://host/x"},
		{"HTTP://HOST:80/x", "http://host/x"},
		{"https://host:443/x", "https://host/x"},
		{"https://host:8443/x", "https://host:8443/x"},
		{"http://host:8080/x", "http://host:8080/x"},
		// Paths are case-sensitive and must survive byte-exact.
		{"http://host/Path/To%2FDoc", "http://host/Path/To%2FDoc"},
		{"HTTPS://example.ORG:443/Pods/00#frag", "https://example.org/Pods/00#frag"},
		// Unparseable input comes back unchanged.
		{"::not a url::", "::not a url::"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOrigin(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://host/a/b", "http://host"},
		{"HTTP://Host:80/a", "http://host"},
		{"https://Pod.Example:443/c", "https://pod.example"},
		{"http://host:8080/a", "http://host:8080"},
		{"::nope::", "invalid://"},
	}
	for _, c := range cases {
		if got := Origin(c.in); got != c.want {
			t.Errorf("Origin(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Every queue discipline must collapse scheme/host-case and default-port
// aliases into one entry — the loop/spoofing defense.
func TestDedupNormalizesAliases(t *testing.T) {
	for _, q := range []Queue{NewFIFO(), NewGuided(nil)} {
		if !q.Push(Link{URL: "http://pod.example/doc", Reason: "seed"}) {
			t.Fatalf("%T: first push rejected", q)
		}
		for _, alias := range []string{
			"HTTP://pod.example/doc",
			"http://POD.EXAMPLE/doc",
			"http://pod.example:80/doc",
			"HTTP://Pod.Example:80/doc",
		} {
			if q.Push(Link{URL: alias, Reason: "see-also"}) {
				t.Errorf("%T: alias %q not deduplicated", q, alias)
			}
		}
		if q.Seen() != 1 || q.Len() != 1 {
			t.Errorf("%T: Seen = %d, Len = %d, want 1, 1", q, q.Seen(), q.Len())
		}
	}
}

func TestGuidedScoring(t *testing.T) {
	rel := NewRelevance([]string{"http://pods/alice/profile/card#me"})
	q := NewGuided(rel)

	mentioned := Link{URL: "http://pods/alice/profile/card", Reason: "see-also"}
	plain := Link{URL: "http://pods/alice/other", Reason: "see-also"}
	if qs, ps := q.Score(mentioned), q.Score(plain); qs <= ps {
		t.Errorf("query-mentioned link scored %v, plain %v; want mentioned higher", qs, ps)
	}

	typeIndex := Link{URL: "http://pods/alice/settings/publicTypeIndex", Reason: "type-index"}
	container := Link{URL: "http://pods/alice/comments/", Reason: "ldp-container"}
	if ts, cs := q.Score(typeIndex), q.Score(container); ts <= cs {
		t.Errorf("type-index scored %v, container %v; want type-index higher", ts, cs)
	}

	// Productivity feedback boosts links discovered in productive documents.
	before := q.Score(Link{URL: "http://pods/alice/a", Via: "http://pods/alice/posts/1", Reason: "see-also"})
	q.DocumentIngested("http://pods/alice/posts/1", 8, 10)
	after := q.Score(Link{URL: "http://pods/alice/b", Via: "http://pods/alice/posts/1", Reason: "see-also"})
	if after <= before {
		t.Errorf("productivity boost missing: before %v, after %v", before, after)
	}
	// Feedback is keyed on normalized URLs, like dedup.
	alias := q.Score(Link{URL: "http://pods/alice/c", Via: "HTTP://PODS/alice/posts/1", Reason: "see-also"})
	if alias <= before {
		t.Errorf("productivity boost must survive Via aliasing: %v <= %v", alias, before)
	}

	// Depth penalty: shallow beats deep at equal relevance.
	shallow := q.Score(Link{URL: "http://pods/alice/s", Reason: "match", Depth: 1})
	deep := q.Score(Link{URL: "http://pods/alice/d", Reason: "match", Depth: 9})
	if shallow <= deep {
		t.Errorf("depth penalty missing: shallow %v, deep %v", shallow, deep)
	}
}

func TestGuidedPopsBestScoreFirstWithinOrigin(t *testing.T) {
	q := NewGuided(nil)
	q.Push(Link{URL: "http://one/all", Reason: "all"})
	q.Push(Link{URL: "http://one/type-index", Reason: "type-index"})
	q.Push(Link{URL: "http://one/container", Reason: "ldp-container"})
	q.Push(Link{URL: "http://one/match", Reason: "match"})
	var order []string
	for {
		l, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, l.URL)
	}
	want := "[http://one/type-index http://one/match http://one/container http://one/all]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestGuidedRoundRobinAcrossOrigins(t *testing.T) {
	q := NewGuided(nil)
	// Origin "bomb" floods the queue with high-scoring links before "quiet"
	// gets a single low-score link in; fairness must still alternate.
	for i := 0; i < 10; i++ {
		q.Push(Link{URL: fmt.Sprintf("http://bomb/doc%d", i), Reason: "type-index"})
	}
	q.Push(Link{URL: "http://quiet/doc", Reason: "all"})
	var origins []string
	for i := 0; i < 3; i++ {
		l, ok := q.Pop()
		if !ok {
			t.Fatal("queue empty early")
		}
		origins = append(origins, Origin(l.URL))
	}
	// Within the first full round-robin cycle both origins must appear.
	if origins[0] == origins[1] {
		t.Errorf("first two pops from one origin: %v", origins)
	}
}

// The property the guided queue must never break: ordering is a permutation.
// Whatever the scores do, the set of links popped equals the set of links
// FIFO pops for the same push sequence — so results cannot change, only
// arrival order (the differential-oracle property of ISSUE satellite 2).
// Pops are interleaved with the pushes, as the traversal's worker pool does
// (a link is popped whenever a worker is free, not after discovery ends).
func TestGuidedIsPermutationOfFIFO(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reasons := []string{"seed", "type-index", "match", "ldp-container", "see-also", "all", "weird"}
		fifo, guided := NewFIFO(), NewGuided(NewRelevance([]string{"http://h0/doc3#me"}))
		n := 5 + rng.Intn(120)
		fset, gset := map[string]bool{}, map[string]bool{}
		for i := 0; i < n; i++ {
			l := Link{
				URL:    fmt.Sprintf("http://h%d/doc%d", rng.Intn(4), rng.Intn(40)),
				Via:    fmt.Sprintf("http://h%d/doc%d", rng.Intn(4), rng.Intn(40)),
				Reason: reasons[rng.Intn(len(reasons))],
				Depth:  rng.Intn(6),
			}
			if rng.Intn(3) == 0 {
				guided.DocumentIngested(l.Via, rng.Intn(10), 10)
			}
			a, b := fifo.Push(l), guided.Push(l)
			if a != b {
				t.Errorf("push accept mismatch for %+v: fifo %v, guided %v", l, a, b)
				return false
			}
			if rng.Intn(4) == 0 { // a worker came free
				if l, ok := fifo.Pop(); ok {
					fset[l.URL] = true
				}
				if l, ok := guided.Pop(); ok {
					gset[l.URL] = true
				}
			}
		}
		if fifo.Len() != guided.Len() || fifo.Seen() != guided.Seen() {
			t.Errorf("Len/Seen mismatch: fifo %d/%d, guided %d/%d",
				fifo.Len(), fifo.Seen(), guided.Len(), guided.Seen())
			return false
		}
		for {
			l, ok := fifo.Pop()
			if !ok {
				break
			}
			fset[l.URL] = true
		}
		for {
			l, ok := guided.Pop()
			if !ok {
				break
			}
			gset[l.URL] = true
		}
		if len(fset) != len(gset) {
			t.Errorf("popped %d from fifo, %d from guided", len(fset), len(gset))
			return false
		}
		for u := range fset {
			if !gset[u] {
				t.Errorf("guided never popped %q", u)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Per-origin fairness property: in any window of consecutive pops, no origin
// is served more than one pop ahead of a still-backlogged origin's share.
func TestGuidedFairnessProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewGuided(nil)
		origins := 2 + rng.Intn(4)
		perOrigin := make([]int, origins)
		for i := 0; i < origins; i++ {
			perOrigin[i] = 1 + rng.Intn(30)
			for j := 0; j < perOrigin[i]; j++ {
				q.Push(Link{URL: fmt.Sprintf("http://origin%d/d%d", i, j), Reason: "see-also"})
			}
		}
		served := make([]int, origins)
		for {
			l, ok := q.Pop()
			if !ok {
				break
			}
			var idx int
			fmt.Sscanf(Origin(l.URL), "http://origin%d", &idx)
			served[idx]++
			// While some origin still has a backlog, no other origin may
			// be ahead of it by more than one round.
			for i := 0; i < origins; i++ {
				if served[i] < perOrigin[i] { // i still backlogged
					for j := 0; j < origins; j++ {
						if served[j] > served[i]+1 {
							t.Errorf("origin %d served %d while backlogged origin %d has %d",
								j, served[j], i, served[i])
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyFIFO, true},
		{"fifo", PolicyFIFO, true},
		{"reason", "", false},
		{"guided", PolicyGuided, true},
		{"bogus", "", false},
	} {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = %q, %v", c.in, got, err)
		}
	}
	for _, p := range []Policy{PolicyFIFO, PolicyGuided, Policy("")} {
		if q := p.New(nil); q == nil {
			t.Errorf("%q.New returned nil", p)
		}
	}
}

// The canonical-form shortcut in Key must agree with the parsing path on
// everything it accepts.
func TestKeyShortcutAgreesWithParser(t *testing.T) {
	fixed := []string{
		"http://h", "http://h/", "https://pod.example.org/a/b.ttl", "http://h:8080/x",
		"http://h:80/x", "https://h:443/", "http://h:080/x", "http://h:/x", "http://h:1x",
		"http://", "http://%", "http:///x", "HTTP://h/x", "http://H/x", "http://h/a b",
		"http://h/a%20b", "http://h/x?q=1", "http://u@h/x", "http://[::1]/x", "http://h//a/../b/.",
		"http://-./~_", "https://h:80/x", "http://h:443/x", "ftp://h/x",
	}
	check := func(raw string) {
		key, ok := parsedKey(raw)
		if canonicalHTTP(raw) && (key != raw || !ok) {
			t.Errorf("canonicalHTTP(%q) but the parser gives (%q, %v)", raw, key, ok)
		}
		if k2, ok2 := Key(raw); k2 != key || ok2 != ok {
			t.Errorf("Key(%q) = (%q, %v), parser gives (%q, %v)", raw, k2, ok2, key, ok)
		}
	}
	for _, raw := range fixed {
		check(raw)
	}
	const alphabet = "htps:/.-_~%?#@[]aZ09 :80443"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := []byte([]string{"http://", "https://", ""}[rng.Intn(3)])
		for n := rng.Intn(14); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		check(string(b))
	}
}
