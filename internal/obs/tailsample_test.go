package obs

import (
	"fmt"
	"testing"
	"time"
)

func outcome(id string, dur time.Duration) TraceOutcome {
	return TraceOutcome{TraceID: id, Duration: dur, Results: 1}
}

func TestTailSampleAlwaysKeepReasons(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Seed: 1, SampleRate: -1})
	cases := []struct {
		name   string
		o      TraceOutcome
		reason string
	}{
		{"budget", TraceOutcome{TraceID: "b", BudgetExceeded: true, Err: "budget"}, "budget"},
		{"error", TraceOutcome{TraceID: "e", Err: "boom"}, "error"},
		{"degraded", TraceOutcome{TraceID: "d", Degraded: true}, "degraded"},
	}
	for _, c := range cases {
		kept, reason := s.Offer(c.o, nil)
		if !kept || reason != c.reason {
			t.Errorf("%s: kept=%v reason=%q, want kept with %q", c.name, kept, reason, c.reason)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := s.Get("e"); got == nil || got.KeepReason != "error" {
		t.Errorf("Get(e) = %+v", got)
	}
}

func TestTailSampleFillOnlyOnKeep(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Seed: 1, SampleRate: -1})
	fills := 0
	fill := func(r *TraceRecord) { fills++; r.Requests = []RequestJSON{{URL: "x"}} }
	if kept, _ := s.Offer(outcome("fast", time.Millisecond), fill); kept {
		t.Fatal("healthy fast query kept with sampling disabled")
	}
	if fills != 0 {
		t.Fatal("fill invoked for a dropped trace")
	}
	if kept, _ := s.Offer(TraceOutcome{TraceID: "err", Err: "x"}, fill); !kept {
		t.Fatal("error outcome dropped")
	}
	if fills != 1 {
		t.Fatalf("fill invocations = %d, want 1", fills)
	}
	if rec := s.Get("err"); rec == nil || len(rec.Requests) != 1 {
		t.Fatal("fill result not visible on the kept record")
	}
}

// TestTailSampleKeepsSlowUnderBurst reproduces the acceptance scenario: a
// 256-query burst of fast healthy queries plus one calibrated-slow query.
// The slow one must survive with reason "slow" while at least 90% of the
// fast ones are dropped.
func TestTailSampleKeepsSlowUnderBurst(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Seed: 42, Capacity: 512})
	fastKept := 0
	for i := 0; i < 256; i++ {
		// Healthy latencies jitter around 10ms — well inside p95*factor.
		d := 10*time.Millisecond + time.Duration(i%8)*time.Millisecond
		if kept, reason := s.Offer(outcome(fmt.Sprintf("fast-%d", i), d), nil); kept {
			if reason != "sampled" {
				t.Fatalf("fast query %d kept with reason %q", i, reason)
			}
			fastKept++
		}
	}
	kept, reason := s.Offer(outcome("calibrated-slow", 500*time.Millisecond), nil)
	if !kept || reason != "slow" {
		t.Fatalf("slow query: kept=%v reason=%q, want kept as slow", kept, reason)
	}
	if rec := s.Get("calibrated-slow"); rec == nil || rec.KeepReason != "slow" {
		t.Fatal("slow trace not retrievable from the store")
	}
	if max := 256 / 10; fastKept > max {
		t.Errorf("fast keeps = %d (> %d): tail sampling must drop >= 90%% of healthy traffic", fastKept, max)
	}
	if s.Seen() != 257 {
		t.Errorf("Seen = %d, want 257", s.Seen())
	}
}

func TestTailSampleRingEviction(t *testing.T) {
	s := NewTraceStore(TraceStoreOptions{Seed: 1, Capacity: 4, SampleRate: -1})
	for i := 0; i < 10; i++ {
		s.Offer(TraceOutcome{TraceID: fmt.Sprintf("t%d", i), Err: "x"}, nil)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", s.Len())
	}
	keptIDs := s.Kept()
	if keptIDs[0].TraceID != "t9" || keptIDs[3].TraceID != "t6" {
		t.Errorf("Kept order wrong: %s .. %s, want newest first t9 .. t6", keptIDs[0].TraceID, keptIDs[3].TraceID)
	}
	if s.Get("t0") != nil {
		t.Error("evicted trace still retrievable")
	}
}

func TestTailSampleNilStore(t *testing.T) {
	var s *TraceStore
	if kept, _ := s.Offer(TraceOutcome{Err: "x"}, nil); kept {
		t.Error("nil store kept a trace")
	}
	if s.Kept() != nil || s.Get("x") != nil || s.Len() != 0 || s.Seen() != 0 {
		t.Error("nil store accessors must be inert")
	}
}

func TestTailSampleMetricsCounters(t *testing.T) {
	m := NewMetrics(NewRegistry())
	s := NewTraceStore(TraceStoreOptions{Seed: 1, SampleRate: -1, Metrics: m})
	s.Offer(TraceOutcome{TraceID: "a", Err: "x"}, nil)
	s.Offer(outcome("b", time.Millisecond), nil)
	if got := m.TracesKept.With("error").Value(); got != 1 {
		t.Errorf("kept counter = %v, want 1", got)
	}
	if got := m.TracesDropped.Value(); got != 1 {
		t.Errorf("dropped counter = %v, want 1", got)
	}
}

// requests undoes RequestsJSON to the microsecond; only the triple count,
// which the wire does not carry, is lost.
func TestRequestsJSONRoundTrip(t *testing.T) {
	reqs, epoch := goldenRequests()
	back := requests(RequestsJSON(reqs, epoch), epoch)
	if len(back) != len(reqs) {
		t.Fatalf("round trip kept %d of %d requests", len(back), len(reqs))
	}
	for i, want := range reqs {
		want.Triples = 0
		if back[i] != want {
			t.Errorf("request %d: round trip gave %+v, want %+v", i, back[i], want)
		}
	}
}
