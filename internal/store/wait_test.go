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

// TestBlockedCallsReturnOnCancel blocks each of Next, NextBatch and
// WaitClosed on an open store, wakes it a few times with triples it does not
// want, then cancels: the call returns at once, and no goroutine outlives it.
func TestBlockedCallsReturnOnCancel(t *testing.T) {
	calls := map[string]func(*Store, context.Context) bool{
		"Next": func(s *Store, ctx context.Context) bool {
			_, ok := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o"))).Next(ctx)
			return ok
		},
		"NextBatch": func(s *Store, ctx context.Context) bool {
			_, ok := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o"))).NextBatch(ctx, make([]rdf.IDTriple, 8), nil)
			return ok
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

// TestBlockedNextBatchWakeUpDoesNotAllocate pins the cost of waking a
// blocked cursor for triples it does not want — what every insert does to
// every blocked cursor during traversal — at zero: the cancellation hook is
// registered once per blocking call, not per wake-up.
func TestBlockedNextBatchWakeUpDoesNotAllocate(t *testing.T) {
	s := New()
	ctx, cancel := newProbeCtx()
	defer cancel()
	it := s.Match(rdf.NewTriple(rdf.NewVar("s"), iri("wanted"), rdf.NewVar("o")))
	res := make(chan bool)
	go func() {
		_, ok := it.NextBatch(ctx, make([]rdf.IDTriple, 8), nil)
		res <- ok
	}()
	waitBlocked(s, ctx)
	if n := testing.AllocsPerRun(100, func() {
		s.wake()
		waitBlocked(s, ctx)
	}); n != 0 {
		t.Errorf("a wake-up of a blocked NextBatch allocates %v times, want 0", n)
	}
	s.Close()
	if ok := <-res; ok {
		t.Error("NextBatch on a closed store without matches reports a batch")
	}
}
