package deref

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ltqp/internal/metrics"
)

// fastPolicy returns a retry policy with no real sleeping, recording the
// delays it would have waited.
func fastPolicy(maxAttempts int, slept *[]time.Duration) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts:    maxAttempts,
		AttemptTimeout: -1,
		sleep: func(ctx context.Context, d time.Duration) error {
			*slept = append(*slept, d)
			return ctx.Err()
		},
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	p := &RetryPolicy{Seed: 42}
	q := &RetryPolicy{Seed: 42}
	for attempt := 1; attempt <= 6; attempt++ {
		if p.Backoff("http://h/doc", attempt) != q.Backoff("http://h/doc", attempt) {
			t.Errorf("attempt %d: same seed, different delays", attempt)
		}
	}
	other := &RetryPolicy{Seed: 7}
	same := 0
	for attempt := 1; attempt <= 6; attempt++ {
		if p.Backoff("http://h/doc", attempt) == other.Backoff("http://h/doc", attempt) {
			same++
		}
	}
	if same == 6 {
		t.Error("different seeds produced identical schedules")
	}
}

func TestBackoffShape(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, JitterFrac: -1}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second}
	for i, w := range want {
		if got := p.Backoff("u", i+1); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", i+1, got, w)
		}
	}
	// Jitter stays within its fraction of the base delay.
	j := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.2}
	for attempt := 1; attempt <= 4; attempt++ {
		lo := p.Backoff("u", attempt)
		hi := lo + lo/5
		if got := j.Backoff("u", attempt); got < lo || got > hi {
			t.Errorf("attempt %d: jittered delay %v outside [%v, %v]", attempt, got, lo, hi)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"5", 5 * time.Second, true},
		{"0", 0, true},
		{"-3", 0, false},
		{"soon", 0, false},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0, true}, // past date: retry now
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRetryableStatusTable(t *testing.T) {
	cases := map[int]bool{
		200: false, 301: false, 400: false, 401: false, 403: false,
		404: false, 408: true, 410: false, 429: true,
		500: true, 501: false, 502: true, 503: true, 504: true,
	}
	for code, want := range cases {
		if got := RetryableStatus(code); got != want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

// flakyHandler fails the first n requests with the given behaviour, then
// serves valid Turtle.
func flakyHandler(n *atomic.Int32, fail func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.Add(-1) >= 0 {
			fail(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(`<http://s> <http://p> "v" .`))
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(w http.ResponseWriter, r *http.Request)
	}{
		{"429", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "rate limited", 429) }},
		{"500", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", 500) }},
		{"503", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "unavailable", 503) }},
		{"conn-reset", func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var failures atomic.Int32
			failures.Store(2)
			ts := newServer(t, flakyHandler(&failures, tc.fail))
			var slept []time.Duration
			rec := metrics.NewRecorder()
			d := &Dereferencer{Client: ts.Client(), Recorder: rec, Retry: fastPolicy(4, &slept)}
			res, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Triples) != 1 {
				t.Fatalf("triples = %d", len(res.Triples))
			}
			if len(slept) != 2 {
				t.Errorf("backoff sleeps = %d, want 2", len(slept))
			}
			// Per-attempt events land in the waterfall; the stats count
			// the retries and report no document as lost.
			reqs := rec.Requests()
			if len(reqs) != 3 {
				t.Fatalf("recorded events = %d, want 3", len(reqs))
			}
			for i, q := range reqs {
				if q.Attempt != i+1 {
					t.Errorf("event %d: attempt = %d", i, q.Attempt)
				}
			}
			s := rec.Stats()
			if s.Retries != 2 || s.FailedDocuments != 0 {
				t.Errorf("stats = %d retries, %d failed docs; want 2, 0", s.Retries, s.FailedDocuments)
			}
		})
	}
}

func TestRetryTerminalFailures(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"404", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "gone", 404) }},
		{"403", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "forbidden", 403) }},
		{"malformed-turtle", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/turtle")
			w.Write([]byte("@@\x00 this is not turtle"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hits := 0
			ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
				hits++
				tc.handler(w, r)
			})
			var slept []time.Duration
			d := &Dereferencer{Client: ts.Client(), Retry: fastPolicy(4, &slept)}
			_, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
			if err == nil {
				t.Fatal("want error")
			}
			if IsRetryable(err) {
				t.Errorf("terminal failure classified retryable: %v", err)
			}
			if hits != 1 || len(slept) != 0 {
				t.Errorf("hits = %d, sleeps = %d; terminal failures must not retry", hits, len(slept))
			}
		})
	}
}

func TestRetryExhaustion(t *testing.T) {
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "unavailable", 503)
	})
	var slept []time.Duration
	rec := metrics.NewRecorder()
	d := &Dereferencer{Client: ts.Client(), Recorder: rec, Retry: fastPolicy(3, &slept)}
	_, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v", err)
	}
	if hits != 3 {
		t.Errorf("attempts = %d, want 3", hits)
	}
	deg := rec.Degradation()
	if len(deg.FailedDocuments) != 1 || deg.Retries != 2 {
		t.Errorf("degradation = %+v", deg)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var failures atomic.Int32
	failures.Store(1)
	ts := newServer(t, flakyHandler(&failures, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "unavailable", 503)
	}))
	var slept []time.Duration
	d := &Dereferencer{Client: ts.Client(), Retry: fastPolicy(4, &slept)}
	if _, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed"); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Errorf("slept = %v, want [2s] (server's Retry-After)", slept)
	}
}

func TestRetryAfterOverCapIsTerminal(t *testing.T) {
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Retry-After", "3600")
		http.Error(w, "down for maintenance", 503)
	})
	var slept []time.Duration
	p := fastPolicy(4, &slept)
	p.MaxRetryAfter = 5 * time.Second
	d := &Dereferencer{Client: ts.Client(), Retry: p}
	if _, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed"); err == nil {
		t.Fatal("want error")
	}
	if hits != 1 || len(slept) != 0 {
		t.Errorf("hits = %d, sleeps = %d; an hour-long Retry-After must not be waited out", hits, len(slept))
	}
}

func TestAttemptTimeoutRetries(t *testing.T) {
	var stalls atomic.Int32
	stalls.Store(1)
	ts := newServer(t, flakyHandler(&stalls, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	var slept []time.Duration
	p := fastPolicy(3, &slept)
	p.AttemptTimeout = 50 * time.Millisecond
	d := &Dereferencer{Client: ts.Client(), Retry: p}
	res, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
	if err != nil {
		t.Fatalf("stalled first attempt should be retried: %v", err)
	}
	if len(res.DecodedTriples()) != 1 || len(slept) != 1 {
		t.Errorf("triples = %d, sleeps = %d", len(res.DecodedTriples()), len(slept))
	}
}

func TestParentCancellationIsTerminal(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var slept []time.Duration
	d := &Dereferencer{Client: ts.Client(), Retry: fastPolicy(4, &slept)}
	_, err := d.Dereference(ctx, ts.URL+"/doc", "", "seed")
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v", err)
	}
	if len(slept) != 0 {
		t.Errorf("caller's deadline must not be retried through (slept %v)", slept)
	}
}

func TestBodyOverflowIsError(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 64
	defer func() { maxBodyBytes = old }()

	big := fmt.Sprintf(`<http://s> <http://p> "%s" .`, strings.Repeat("x", 200))
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(big))
	})
	d := &Dereferencer{Client: ts.Client()}
	_, err := d.Dereference(context.Background(), ts.URL+"/big", "", "seed")
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized body must error, not parse truncated: %v", err)
	}
	if IsRetryable(err) {
		t.Error("oversized body is terminal")
	}
}

func TestBodyAtLimitStillParses(t *testing.T) {
	old := maxBodyBytes
	defer func() { maxBodyBytes = old }()
	doc := `<http://s> <http://p> "v" .`
	maxBodyBytes = int64(len(doc))
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		w.Write([]byte(doc))
	})
	d := &Dereferencer{Client: ts.Client()}
	res, err := d.Dereference(context.Background(), ts.URL+"/exact", "", "seed")
	if err != nil {
		t.Fatalf("body exactly at the cap is complete: %v", err)
	}
	if len(res.DecodedTriples()) != 1 {
		t.Errorf("triples = %d", len(res.DecodedTriples()))
	}
}

func TestCacheStoresRetriedSuccess(t *testing.T) {
	var failures atomic.Int32
	failures.Store(2)
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		flakyHandler(&failures, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "unavailable", 503)
		})(w, r)
	})
	var slept []time.Duration
	cache := mapCache{}
	d := &Dereferencer{Client: ts.Client(), Shared: cache, Retry: fastPolicy(4, &slept)}

	// First dereference: two 503s, then success — cached.
	res, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DecodedTriples()) != 1 || hits != 3 {
		t.Fatalf("triples = %d, hits = %d", len(res.DecodedTriples()), hits)
	}
	if len(cache) != 1 {
		t.Errorf("cache holds %d entries after the retried fetch, want 1", len(cache))
	}

	// Second dereference: served from cache, no further requests.
	if _, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed"); err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Errorf("server hits = %d, want 3 (cache hit)", hits)
	}
}

func TestNilPolicySingleAttempt(t *testing.T) {
	hits := 0
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "unavailable", 503)
	})
	d := &Dereferencer{Client: ts.Client()}
	if _, err := d.Dereference(context.Background(), ts.URL+"/doc", "", "seed"); err == nil {
		t.Fatal("want error")
	}
	if hits != 1 {
		t.Errorf("nil policy hits = %d, want 1", hits)
	}
}
