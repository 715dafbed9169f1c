package store

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ltqp/internal/rdf"
)

// probeCtx reports every Err check: the blocking calls check their context
// each time round their wait loop, under the store lock. Once a check was
// seen, taking that lock means the caller is back in its wait.
type probeCtx struct {
	context.Context
	checks chan struct{}
}

func newProbeCtx() (probeCtx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return probeCtx{ctx, make(chan struct{}, 1)}, cancel
}

func (c probeCtx) Err() error {
	select {
	case c.checks <- struct{}{}:
	default:
	}
	return c.Context.Err()
}

// waitBlocked returns once the call behind ctx is blocked in s: it checked
// ctx, and then let go of the lock, which only cond.Wait does.
func waitBlocked(s *Store, ctx probeCtx) {
	<-ctx.checks
	s.mu.Lock()
	s.mu.Unlock()
}

// TestBlockedCallsReturnOnCancel blocks each of BGP.Next and WaitClosed on
// an open store, wakes it a few times with triples it does not want, then
// cancels: the call returns at once, and no goroutine outlives it.
func TestBlockedCallsReturnOnCancel(t *testing.T) {
	calls := map[string]func(*Store, context.Context) bool{
		"BGP.Next": func(s *Store, ctx context.Context) bool {
			b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o")))
			defer b.Release()
			found := false
			for next(ctx, b, func(_, _ []rdf.TermID) bool { found = true; return true }) {
			}
			return found
		},
		"WaitClosed": func(s *Store, ctx context.Context) bool { return s.WaitClosed(ctx) == nil },
	}
	base := runtime.NumGoroutine()
	for name, call := range calls {
		s := New()
		ctx, cancel := newProbeCtx()
		res := make(chan bool)
		go func() { res <- call(s, ctx) }()
		for i := 0; i < 5; i++ {
			waitBlocked(s, ctx)
			s.Add(tp("a", "other", string(rune('b'+i))), doc)
		}
		waitBlocked(s, ctx)
		cancel()
		select {
		case ok := <-res:
			if ok {
				t.Errorf("%s: cancelled call reports success", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not return on cancel", name)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the calls returned, %d before", n, base)
	}
}

// TestBlockedBGPWakeUpDoesNotAllocate pins the cost of waking a blocked BGP
// for triples it does not want — what every attached document does to every
// blocked BGP during traversal — at zero: the cancellation hook is
// registered once per BGP, not per wake-up, and a step that matches nothing
// allocates nothing. The store's own growth is amortized below one
// allocation a document.
func TestBlockedBGPWakeUpDoesNotAllocate(t *testing.T) {
	s := New()
	probe, cancel := newProbeCtx()
	defer cancel()
	var ctx context.Context = probe // converted once, not per Next
	b := loneBGP(s, rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o")))
	defer b.Release()
	other, src := s.dict.Intern(iri("other")), s.dict.Intern(doc)
	ids := make([]rdf.IDTriple, 1)
	next := rdf.TermID(1 << 20)
	attach := func() {
		ids[0] = rdf.IDTriple{S: next, P: other, O: next}
		next++
		s.AddEncoded(src, ids)
	}
	for i := 0; i < 1000; i++ { // past the store's first doublings
		attach()
	}
	res := make(chan bool)
	rows := &Rows{Flush: func() bool { return false }}
	go func() {
		for b.Next(ctx, rows) {
		}
		res <- b.w.stop != nil
	}()
	waitBlocked(s, probe)
	if n := testing.AllocsPerRun(100, func() {
		attach()
		waitBlocked(s, probe)
	}); n != 0 {
		t.Errorf("waking a blocked BGP.Next with an unwanted triple allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.wake()
		waitBlocked(s, probe)
	}); n != 0 {
		t.Errorf("a spurious wake-up of a blocked BGP.Next allocates %v times, want 0", n)
	}
	s.Close()
	if registered := <-res; !registered {
		t.Error("the BGP never blocked")
	}
}
