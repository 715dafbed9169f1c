package resource

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLedgerStress hammers one ledger from 64 goroutines charging and
// releasing across deref/store/exec concurrently (run under -race by `make
// verify`). At drain it asserts charge/release balance (live bytes return
// to zero), exact cumulative charge totals, and high-water sanity: peaks
// are at least the largest single live claim and never exceed the
// cumulative charge.
func TestLedgerStress(t *testing.T) {
	const (
		goroutines = 64
		iters      = 500
	)
	l := New(1, "tenant-a", 0)
	cats := []Category{Deref, Store, Exec}

	var wg sync.WaitGroup
	var wantCharged [NumCategories]atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cat := cats[(g+i)%len(cats)]
				n := int64(64 + (g*31+i*7)%4096)
				l.Charge(cat, n)
				wantCharged[cat].Add(n)
				if peak := l.PeakBy(cat); peak < n {
					t.Errorf("peak[%s]=%d below a live charge of %d", cat, peak, n)
				}
				l.Release(cat, n)
			}
		}(g)
	}
	wg.Wait()

	if got := l.Current(); got != 0 {
		t.Errorf("live bytes after drain = %d, want 0 (charge/release imbalance)", got)
	}
	var total int64
	for _, cat := range cats {
		want := wantCharged[cat].Load()
		total += want
		if got := l.ChargedBy(cat); got != want {
			t.Errorf("charged[%s] = %d, want %d", cat, got, want)
		}
		if got := l.CurrentBy(cat); got != 0 {
			t.Errorf("current[%s] = %d after drain, want 0", cat, got)
		}
		if peak := l.PeakBy(cat); peak <= 0 || peak > want {
			t.Errorf("peak[%s] = %d, want in (0, %d]", cat, peak, want)
		}
	}
	if got := l.Charged(); got != total {
		t.Errorf("Charged() = %d, want %d", got, total)
	}
	if p := l.Peak(); p <= 0 || p > total {
		t.Errorf("Peak() = %d, want in (0, %d]", p, total)
	}
	if l.Exceeded() {
		t.Error("Exceeded() = true with no budget configured")
	}
}

// TestPeakMonotonic interleaves charges and releases on one goroutine and
// checks the high-water mark never decreases.
func TestPeakMonotonic(t *testing.T) {
	l := New(2, "", 0)
	prev := int64(0)
	for i := 0; i < 100; i++ {
		l.Charge(Exec, int64(100+i))
		if p := l.Peak(); p < prev {
			t.Fatalf("peak decreased: %d -> %d", prev, p)
		} else {
			prev = p
		}
		l.Release(Exec, int64(100+i))
		if p := l.Peak(); p != prev {
			t.Fatalf("release moved the peak: %d -> %d", prev, p)
		}
	}
	if l.Current() != 0 {
		t.Fatalf("current = %d, want 0", l.Current())
	}
}

// TestBudgetExceededOnce races 32 goroutines over a tiny budget and
// asserts the callback latches exactly once, with a typed error carrying
// the per-layer breakdown.
func TestBudgetExceededOnce(t *testing.T) {
	l := New(7, "tenant-b", 1<<10)
	var fired atomic.Int64
	var gotErr atomic.Pointer[BudgetExceededError]
	l.OnExceeded(func(e *BudgetExceededError) {
		fired.Add(1)
		gotErr.Store(e)
	})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Charge(Store, 64)
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnExceeded fired %d times, want exactly 1", n)
	}
	if !l.Exceeded() {
		t.Fatal("Exceeded() = false after budget crossing")
	}
	e := gotErr.Load()
	if e == nil || e.Budget != 1<<10 || e.Attempted <= e.Budget {
		t.Fatalf("bad error: %+v", e)
	}
	if e.Breakdown == nil || e.Breakdown.QueryID != 7 || e.Breakdown.Tenant != "tenant-b" {
		t.Fatalf("breakdown missing identity: %+v", e.Breakdown)
	}
	if e.Breakdown.TopLayer != "store" {
		t.Errorf("TopLayer = %q, want store", e.Breakdown.TopLayer)
	}
	var bx *BudgetExceededError
	if err := error(e); !errors.As(err, &bx) {
		t.Error("errors.As failed to match *BudgetExceededError")
	}
	msg := e.Error()
	for _, want := range []string{"memory budget exceeded", "store"} {
		if !contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestNilLedger checks every method is a safe no-op on nil.
func TestNilLedger(t *testing.T) {
	var l *Ledger
	l.Charge(Deref, 100)
	l.Release(Deref, 100)
	l.OnExceeded(func(*BudgetExceededError) {})
	if l.Current() != 0 || l.Peak() != 0 || l.Charged() != 0 || l.Exceeded() {
		t.Error("nil ledger reported nonzero usage")
	}
	if l.Snapshot() != nil {
		t.Error("nil ledger snapshot != nil")
	}
	if l.Tenant() != "" || l.QueryID() != 0 || l.Budget() != 0 {
		t.Error("nil ledger reported identity")
	}
	var tl *TenantLedger
	tl.Record(l.Tenant(), l.Charged(), l.Peak(), l.Exceeded())
	if tl.Snapshot() != nil || tl.MaxPeak() != 0 {
		t.Error("nil tenant ledger reported usage")
	}
}

// TestSnapshot checks the snapshot's layers, top-layer attribution, and
// JSON round-trip shape.
func TestSnapshot(t *testing.T) {
	l := New(42, "alice", 1<<20)
	l.Charge(Deref, 1000)
	l.Charge(Store, 5000)
	l.Charge(Exec, 200)
	l.Release(Exec, 200)
	s := l.Snapshot()
	if s.QueryID != 42 || s.Tenant != "alice" || s.Budget != 1<<20 {
		t.Fatalf("identity: %+v", s)
	}
	if s.TopLayer != "store" {
		t.Errorf("TopLayer = %q, want store", s.TopLayer)
	}
	if s.Current != 6000 || s.Charged != 6200 || s.Peak != 6200 {
		t.Errorf("totals: current=%d charged=%d peak=%d", s.Current, s.Charged, s.Peak)
	}
	if len(s.Layers) != 3 {
		t.Fatalf("layers = %d, want 3 (serve unused should be omitted)", len(s.Layers))
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TopLayer != "store" || len(back.Layers) != 3 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if bd := s.BreakdownString(); !contains(bd, "store") || !contains(bd, "deref") {
		t.Errorf("BreakdownString() = %q", bd)
	}
}

// TestTenantLedger checks rollups accumulate per tenant, sort by spend,
// and track the max single-query peak.
func TestTenantLedger(t *testing.T) {
	tl := NewTenantLedger()
	a1 := New(1, "a", 0)
	a1.Charge(Store, 1000)
	a2 := New(2, "a", 100)
	a2.OnExceeded(func(*BudgetExceededError) {})
	a2.Charge(Exec, 5000)
	b := New(3, "", 0)
	b.Charge(Deref, 300)
	for _, l := range []*Ledger{a1, a2, b} {
		tl.Record(l.Tenant(), l.Charged(), l.Peak(), l.Exceeded())
	}
	snap := tl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("tenants = %d, want 2", len(snap))
	}
	if snap[0].Tenant != "a" || snap[0].Queries != 2 || snap[0].Charged != 6000 {
		t.Errorf("tenant a: %+v", snap[0])
	}
	if snap[0].Exceeded != 1 {
		t.Errorf("tenant a exceeded = %d, want 1", snap[0].Exceeded)
	}
	if snap[1].Tenant != "default" || snap[1].Charged != 300 {
		t.Errorf("default tenant: %+v", snap[1])
	}
	if got := tl.MaxPeak(); got != 5000 {
		t.Errorf("MaxPeak = %d, want 5000", got)
	}
}

// TestLedgerOffZeroAllocs enforces the acceptance criterion as a test, not
// just a benchmark: the nil-ledger hot path performs zero allocations.
func TestLedgerOffZeroAllocs(t *testing.T) {
	var l *Ledger
	allocs := testing.AllocsPerRun(1000, func() {
		l.Charge(Exec, 4096)
		l.Release(Exec, 4096)
	})
	if allocs != 0 {
		t.Errorf("nil-ledger hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		1536:    "1.5KiB",
		1 << 20: "1.0MiB",
		3 << 30: "3.0GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// BenchmarkLedgerOff measures the no-ledger hot path: a nil receiver
// charge/release pair. Must report 0 allocs/op —
// this is the zero-overhead-when-off guarantee the engine relies on.
func BenchmarkLedgerOff(b *testing.B) {
	var l *Ledger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Charge(Exec, 4096)
		l.Release(Exec, 4096)
	}
}

// BenchmarkLedgerOn measures the attached-ledger charge/release pair for
// contrast (atomic adds + CAS peak raise).
func BenchmarkLedgerOn(b *testing.B) {
	l := New(1, "bench", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Charge(Exec, 4096)
		l.Release(Exec, 4096)
	}
	if l.Current() != 0 {
		b.Fatal("imbalance")
	}
}

// BenchmarkLedgerOnParallel measures contended charging from all P's.
func BenchmarkLedgerOnParallel(b *testing.B) {
	l := New(1, "bench", 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Charge(Store, 64)
			l.Release(Store, 64)
		}
	})
}
