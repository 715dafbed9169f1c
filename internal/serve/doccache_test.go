package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltqp/internal/deref"
	"ltqp/internal/rdf"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// upstream simulates an origin server behind FetchFunc: it counts fetches
// and answers 304 when the presented validators match the current version.
type upstream struct {
	mu       sync.Mutex
	etag     string
	body     string
	fetches  atomic.Int64
	inflight atomic.Int64
	maxSeen  atomic.Int64
	delay    time.Duration
}

func (u *upstream) set(etag, body string) {
	u.mu.Lock()
	u.etag, u.body = etag, body
	u.mu.Unlock()
}

func (u *upstream) fetch(url string) deref.FetchFunc {
	return func(ctx context.Context, vals deref.Validators) (*deref.Result, error) {
		n := u.inflight.Add(1)
		defer u.inflight.Add(-1)
		for {
			prev := u.maxSeen.Load()
			if n <= prev || u.maxSeen.CompareAndSwap(prev, n) {
				break
			}
		}
		if u.delay > 0 {
			select {
			case <-time.After(u.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		u.fetches.Add(1)
		u.mu.Lock()
		etag, body := u.etag, u.body
		u.mu.Unlock()
		if vals.ETag != "" && vals.ETag == etag {
			return &deref.Result{URL: url, FinalURL: url, Status: 304, NotModified: true, Validators: vals}, nil
		}
		return &deref.Result{
			URL: url, FinalURL: url, Status: 200, Bytes: int64(len(body)),
			Triples:    []rdf.Triple{rdf.NewTriple(rdf.NewIRI(url+"#s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral(body))},
			Validators: deref.Validators{ETag: etag},
		}, nil
	}
}

func newTestCache(clock *fakeClock, maxBytes int64, ttl time.Duration) *SharedCache {
	return NewSharedCache(SharedCacheOptions{MaxBytes: maxBytes, TTL: ttl, now: clock.Now})
}

func TestFreshHitSkipsNetwork(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	u := &upstream{}
	u.set(`"v1"`, "hello")

	res1, hit, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil || hit {
		t.Fatalf("first access: hit=%v err=%v", hit, err)
	}
	res2, hit, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil || !hit {
		t.Fatalf("second access: hit=%v err=%v", hit, err)
	}
	if res1 != res2 {
		t.Fatal("hit must return the identical cached result")
	}
	if got := u.fetches.Load(); got != 1 {
		t.Fatalf("upstream fetches = %d, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 5 || st.Documents != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTTLExpiryRevalidatesWith304(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	u := &upstream{}
	u.set(`"v1"`, "hello")

	first, _, _ := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	clock.Advance(2 * time.Minute)

	res, hit, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("revalidation leader must not report a hit")
	}
	if res != first {
		t.Fatal("304 must keep the cached parse")
	}
	st := c.Stats()
	if st.Revalidations != 1 || st.NotModified != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The lease is refreshed: the next access within TTL is a pure hit.
	if _, hit, _ = c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d")); !hit {
		t.Fatal("lease not refreshed after 304")
	}
	if got := u.fetches.Load(); got != 2 {
		t.Fatalf("upstream fetches = %d, want 2", got)
	}
}

func TestTTLExpiryPicksUpNewVersion(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	u := &upstream{}
	u.set(`"v1"`, "old")

	c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	u.set(`"v2"`, "new-body")
	clock.Advance(2 * time.Minute)

	res, _, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Validators.ETag != `"v2"` || res.Bytes != 8 {
		t.Fatalf("stale version served: %+v", res)
	}
	if c.Bytes() != 8 {
		t.Fatalf("occupancy = %d, want replaced entry's 8", c.Bytes())
	}
}

func TestEpochInvalidationForcesRevalidation(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Hour)
	u := &upstream{}
	u.set(`"v1"`, "hello")

	c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if epoch := c.Invalidate(); epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}

	// Within TTL, but the epoch moved: must revalidate, not serve stale.
	_, hit, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil || hit {
		t.Fatalf("post-invalidate access: hit=%v err=%v", hit, err)
	}
	if got := u.fetches.Load(); got != 2 {
		t.Fatalf("upstream fetches = %d, want 2 (revalidation)", got)
	}
	if st := c.Stats(); st.NotModified != 1 {
		t.Fatalf("revalidation should have been a 304: %+v", st)
	}
	// Entry re-leased under the new epoch: next access is a plain hit.
	if _, hit, _ := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d")); !hit {
		t.Fatal("entry not re-leased under new epoch")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 20, time.Hour) // room for 2 10-byte docs
	u := &upstream{}
	u.set(`"v"`, "0123456789")

	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Dereference(context.Background(), key, "http://x/"+key, u.fetch("http://x/"+key)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 || c.Bytes() != 20 {
		t.Fatalf("len=%d bytes=%d, want 2/20", c.Len(), c.Bytes())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// k0 was evicted (LRU); k2 must still be cached.
	if _, hit, _ := c.Dereference(context.Background(), "k2", "http://x/k2", u.fetch("http://x/k2")); !hit {
		t.Fatal("most recent entry evicted")
	}
	if _, hit, _ := c.Dereference(context.Background(), "k0", "http://x/k0", u.fetch("http://x/k0")); hit {
		t.Fatal("LRU entry not evicted")
	}
}

func TestOversizedDocumentNotCached(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 4, time.Hour)
	u := &upstream{}
	u.set(`"v"`, "way too large")

	c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if c.Len() != 0 {
		t.Fatal("oversized document must not enter the cache")
	}
}

// TestSingleflightSharesOneFetch is the satellite's core concurrency test:
// k goroutines dereference the same IRI, exactly one upstream fetch happens,
// and every goroutine receives the identical parsed document.
func TestSingleflightSharesOneFetch(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	u := &upstream{delay: 20 * time.Millisecond}
	u.set(`"v1"`, "hello")

	const k = 64
	var (
		wg      sync.WaitGroup
		results [k]*deref.Result
		hits    atomic.Int64
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, hit, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
			if hit {
				hits.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if got := u.fetches.Load(); got != 1 {
		t.Fatalf("upstream fetches = %d, want exactly 1", got)
	}
	if got := u.maxSeen.Load(); got != 1 {
		t.Fatalf("max concurrent upstream fetches = %d, want 1", got)
	}
	for i := 1; i < k; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different document", i)
		}
	}
	st := c.Stats()
	if st.Dedups == 0 {
		t.Fatal("no dedups recorded for concurrent identical dereferences")
	}
	if st.DuplicateInflight != 0 {
		t.Fatalf("duplicate in-flight fetches detected: %d", st.DuplicateInflight)
	}
	// Followers + leader: hits + 1 leader-miss == k accesses.
	if hits.Load() != st.Dedups {
		t.Fatalf("hits=%d dedups=%d, want equal", hits.Load(), st.Dedups)
	}
}

// TestEvictionUnderConcurrentRevalidation hammers a tiny cache from many
// goroutines across several keys and epochs while entries are concurrently
// evicted and revalidated; run with -race. Invariants: no duplicate
// in-flight fetches, occupancy within budget, no lost errors.
func TestEvictionUnderConcurrentRevalidation(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 64, -1) // negative TTL: every access revalidates
	u := &upstream{}
	u.set(`"v1"`, "0123456789abcdef") // 16 bytes → 4 entries fit

	const goroutines = 16
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if i%20 == 19 {
					c.Invalidate()
				}
				if _, _, err := c.Dereference(context.Background(), key, "http://x/"+key, u.fetch("http://x/"+key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.DuplicateInflight != 0 {
		t.Fatalf("duplicate in-flight fetches: %d", st.DuplicateInflight)
	}
	if c.Bytes() > 64 {
		t.Fatalf("occupancy %d exceeds budget", c.Bytes())
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a 4-entry budget and 8 keys")
	}
}

func TestFollowerRetriesAfterLeaderCancelled(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderEntered := make(chan struct{})
	release := make(chan struct{})
	var fetches atomic.Int64
	fetch := func(ctx context.Context, vals deref.Validators) (*deref.Result, error) {
		n := fetches.Add(1)
		if n == 1 {
			close(leaderEntered)
			<-release
			return nil, ctx.Err() // leader dies of its own cancellation
		}
		return &deref.Result{URL: "http://x/d", FinalURL: "http://x/d", Status: 200, Bytes: 1}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Dereference(leaderCtx, "k", "http://x/d", fetch)
		if err == nil {
			t.Error("cancelled leader must fail")
		}
	}()

	<-leaderEntered
	wg.Add(1)
	var followerRes *deref.Result
	go func() {
		defer wg.Done()
		res, _, err := c.Dereference(context.Background(), "k", "http://x/d", fetch)
		if err != nil {
			t.Error("follower must retry as leader, got:", err)
			return
		}
		followerRes = res
	}()

	// Let the follower join the leader's flight, then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	close(release)
	wg.Wait()

	if followerRes == nil || followerRes.Status != 200 {
		t.Fatalf("follower result = %+v", followerRes)
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("fetches = %d, want 2 (failed leader + follower retry)", got)
	}
}

func TestFetchErrorKeepsStaleEntry(t *testing.T) {
	clock := newFakeClock()
	c := newTestCache(clock, 1<<20, time.Minute)
	u := &upstream{}
	u.set(`"v1"`, "hello")

	first, _, _ := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	clock.Advance(2 * time.Minute)

	boom := errors.New("origin down")
	if _, _, err := c.Dereference(context.Background(), "k", "http://x/d",
		func(ctx context.Context, vals deref.Validators) (*deref.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want origin error", err)
	}
	// The stale parse survives: a later successful revalidation reuses it.
	res, _, err := c.Dereference(context.Background(), "k", "http://x/d", u.fetch("http://x/d"))
	if err != nil {
		t.Fatal(err)
	}
	if res != first {
		t.Fatal("stale entry dropped on fetch failure")
	}
}

// A cached document keeps its pre-encoded segment for as long as its body
// is current: a 304 revalidation serves the very same Result (so nothing is
// re-encoded or re-scanned), and only a changed body gets a new segment.
func TestSegmentSurvivesRevalidation(t *testing.T) {
	var mu sync.Mutex
	etag, body := `"v1"`, `<#a> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <other> .`
	var conditional atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Header.Get("If-None-Match") == etag {
			conditional.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		w.Header().Set("ETag", etag)
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	dict := rdf.NewDict()
	cache := NewSharedCache(SharedCacheOptions{})
	d := &deref.Dereferencer{Client: srv.Client(), Dict: dict, Shared: cache}
	get := func() *deref.Result {
		t.Helper()
		res, err := d.Dereference(context.Background(), srv.URL+"/doc", "", "seed")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := get()
	seg := first.Segment
	if seg == nil || seg.Dict != dict || seg.Links == nil || len(seg.Triples) != 1 || len(first.DecodedTriples()) != 1 {
		t.Fatalf("fetched result carries segment %+v for %d triples", seg, len(first.DecodedTriples()))
	}
	if got := dict.DecodeTriple(seg.Triples[0]); got != first.DecodedTriples()[0] {
		t.Errorf("segment triple decodes to %v, parsed %v", got, first.DecodedTriples()[0])
	}
	if got := dict.Decode(seg.Source); got != rdf.NewIRI(first.FinalURL) {
		t.Errorf("segment source decodes to %v, want the final URL %s", got, first.FinalURL)
	}

	cache.Invalidate() // every entry must revalidate
	again := get()
	if conditional.Load() != 1 {
		t.Fatalf("second access made %d conditional requests answered 304, want 1", conditional.Load())
	}
	if again != first || again.Segment != seg {
		t.Error("a 304 revalidation must keep serving the cached Result and its segment")
	}

	mu.Lock()
	etag, body = `"v2"`, body+` <#a> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <third> .`
	mu.Unlock()
	cache.Invalidate()
	changed := get()
	if changed == first || changed.Segment == nil || changed.Segment == seg {
		t.Fatal("a changed body must produce a new Result with a new segment")
	}
	if len(changed.Segment.Triples) != 2 || len(changed.DecodedTriples()) != 2 {
		t.Errorf("new segment has %d ID triples for %d parsed", len(changed.Segment.Triples), len(changed.DecodedTriples()))
	}
}

// A negative TTL means no entry is ever fresh: every access after the first
// is a conditional request, and as long as the origin answers 304 the one
// parse made by the first fetch keeps being served.
func TestSharedCacheNegativeTTLRevalidates(t *testing.T) {
	var full, conditional atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") == `"v1"` {
			conditional.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		full.Add(1)
		w.Header().Set("Content-Type", "text/turtle")
		w.Header().Set("ETag", `"v1"`)
		fmt.Fprint(w, `<#a> <http://x/p> "v" .`)
	}))
	defer srv.Close()

	cache := NewSharedCache(SharedCacheOptions{TTL: -1})
	d := &deref.Dereferencer{Client: srv.Client(), Shared: cache}
	const n = 5
	var first *deref.Result
	for i := 0; i < n; i++ {
		res, err := d.Dereference(context.Background(), srv.URL+"/doc", "", "seed")
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		}
		if res != first {
			t.Fatalf("access %d served another parse than the first fetch's", i+1)
		}
	}
	if full.Load() != 1 || conditional.Load() != n-1 {
		t.Errorf("origin saw %d full and %d conditional requests, want 1 and %d", full.Load(), conditional.Load(), n-1)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Revalidations != n-1 || st.NotModified != n-1 {
		t.Errorf("stats = %+v, want 0 hits, 1 miss, %d revalidations all answered 304", st, n-1)
	}
}

// The byte budget counts what an entry retains, its ID triples, link table
// and URL, not its body: a budget that fits N documents by retained size
// holds N of them although each body alone is larger than the budget, and
// document N+1 evicts the least recently used one.
func TestBudgetCountsRetainedSize(t *testing.T) {
	padding := "# " + strings.Repeat("padding ", 512) + "\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		fmt.Fprintf(w, "%s<#it> <http://www.w3.org/2000/01/rdf-schema#seeAlso> <other%s>, <more%s> ; <http://x/p> \"v\" .\n",
			padding, r.URL.Path[1:], r.URL.Path[1:])
	}))
	defer srv.Close()

	const n = 3
	dict := rdf.NewDict()
	var sizes []int64
	direct := &deref.Dereferencer{Client: srv.Client(), Dict: dict}
	for i := 0; i <= n; i++ {
		res, err := direct.Dereference(context.Background(), fmt.Sprintf("%s/d%d", srv.URL, i), "", "seed")
		if err != nil {
			t.Fatal(err)
		}
		if r := retained(res); r <= int64(12*len(res.Segment.Triples)) || r >= res.Bytes {
			t.Fatalf("document %d retains %d bytes for %d ID triples and a %d-byte body", i, r, len(res.Segment.Triples), res.Bytes)
		}
		sizes = append(sizes, retained(res))
	}
	budget := sizes[0] + sizes[1] + sizes[2]

	cache := newTestCache(newFakeClock(), budget, time.Hour)
	d := &deref.Dereferencer{Client: srv.Client(), Dict: dict, Shared: cache}
	for i := 0; i <= n; i++ {
		if _, err := d.Dereference(context.Background(), fmt.Sprintf("%s/d%d", srv.URL, i), "", "seed"); err != nil {
			t.Fatal(err)
		}
		st := cache.Stats()
		if i < n && (st.Documents != i+1 || st.Evictions != 0) {
			t.Fatalf("after %d documents: %d cached, %d evicted; the budget fits %d", i+1, st.Documents, st.Evictions, n)
		}
		if i == n && (st.Documents != n || st.Evictions != 1 || st.Bytes != sizes[1]+sizes[2]+sizes[3]) {
			t.Fatalf("document %d: %d cached, %d evicted, %d bytes held; want %d, 1 and %d", n+1,
				st.Documents, st.Evictions, st.Bytes, n, sizes[1]+sizes[2]+sizes[3])
		}
	}
}
