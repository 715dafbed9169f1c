package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBusNilSafety(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus must be inactive")
	}
	b.Publish(Event{Kind: EventQueryStarted}) // must not panic
	if s := b.Subscribe(4); s != nil {
		t.Fatal("nil bus must return nil subscription")
	}
	var s *Subscription
	s.Close()
	if s.Dropped() != 0 || s.Drain() != nil {
		t.Fatal("nil subscription must no-op")
	}
	var e *Emitter
	if e.Active() {
		t.Fatal("nil emitter must be inactive")
	}
	e.Emit(Event{Kind: EventResultEmitted}) // must not panic
	if NewEmitter(b, 7, nil, nil, nil, nil, nil) != nil {
		t.Fatal("nil bus must yield nil emitter")
	}
}

func TestBusPublishWithoutSubscribersIsDropped(t *testing.T) {
	b := NewBus()
	b.Publish(Event{Kind: EventQueryStarted})
	s := b.Subscribe(4)
	defer s.Close()
	select {
	case ev := <-s.C:
		t.Fatalf("unexpected event %v published before subscribe", ev.Kind)
	default:
	}
}

func TestBusOrderedDelivery(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(64)
	defer s.Close()
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: EventResultEmitted, Row: i})
	}
	var prev uint64
	for i := 0; i < 10; i++ {
		ev := <-s.C
		if ev.Seq <= prev {
			t.Fatalf("sequence not increasing: %d after %d", ev.Seq, prev)
		}
		if ev.Row != i {
			t.Fatalf("row %d arrived out of order (want %d)", ev.Row, i)
		}
		if ev.Time.IsZero() {
			t.Fatal("publish must stamp a time")
		}
		prev = ev.Seq
	}
}

func TestBusQueryFilter(t *testing.T) {
	b := NewBus()
	all := b.Subscribe(16)
	only2 := b.SubscribeQuery(2, 16)
	defer all.Close()
	defer only2.Close()
	b.Publish(Event{Kind: EventQueryStarted, Query: 1})
	b.Publish(Event{Kind: EventQueryStarted, Query: 2})
	if ev := <-only2.C; ev.Query != 2 {
		t.Fatalf("filtered subscription got query %d", ev.Query)
	}
	select {
	case ev := <-only2.C:
		t.Fatalf("filtered subscription got extra event for query %d", ev.Query)
	default:
	}
	if ev := <-all.C; ev.Query != 1 {
		t.Fatalf("unfiltered subscription got query %d first", ev.Query)
	}
}

func TestBusFullBufferDropsAndCounts(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(2)
	defer s.Close()
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: EventLinkDiscovered})
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := len(s.Drain()); got != 2 {
		t.Fatalf("buffered = %d, want 2", got)
	}
}

func TestSubscriptionCloseDetachesAndDrains(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(8)
	b.Publish(Event{Kind: EventQueryStarted})
	b.Publish(Event{Kind: EventQueryFinished})
	s.Close()
	s.Close() // idempotent
	if b.Active() {
		t.Fatal("bus still active after last unsubscribe")
	}
	b.Publish(Event{Kind: EventResultEmitted}) // must not reach s
	tail := s.Drain()
	if len(tail) != 2 || tail[0].Kind != EventQueryStarted || tail[1].Kind != EventQueryFinished {
		t.Fatalf("drained tail = %+v", tail)
	}
}

func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(q int64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish(Event{Kind: EventLinkQueued, Query: q})
			}
		}(int64(g))
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.Subscribe(32)
			defer s.Close()
			for {
				select {
				case <-s.C:
				case <-stop:
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publishers blocked — publish must never stall")
	}
}

func TestEmitterStampsQueryID(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4)
	defer s.Close()
	NewEmitter(b, 42, nil, nil, nil, nil, nil).Emit(Event{Kind: EventResultEmitted})
	if ev := <-s.C; ev.Query != 42 {
		t.Fatalf("query = %d, want 42", ev.Query)
	}
}

func TestQueryIDContext(t *testing.T) {
	ctx := context.Background()
	if QueryIDFromContext(ctx) != 0 {
		t.Fatal("empty context must carry no query id")
	}
	ctx = ContextWithQueryID(ctx, 9)
	if got := QueryIDFromContext(ctx); got != 9 {
		t.Fatalf("query id = %d, want 9", got)
	}
	if ContextWithQueryID(context.Background(), 0) != context.Background() {
		t.Fatal("zero id must not wrap the context")
	}
	a, b := NextQueryID(), NextQueryID()
	if b != a+1 {
		t.Fatalf("ids not monotonic: %d then %d", a, b)
	}
}

func TestEventKindsMatchesConstants(t *testing.T) {
	want := map[EventKind]bool{
		EventQueryStarted: true, EventStageStarted: true, EventStageFinished: true,
		EventMorselProcessed:      true,
		EventDocumentDereferenced: true, EventLinkDiscovered: true, EventLinkQueued: true,
		EventLinkPruned: true, EventRetryScheduled: true, EventResultEmitted: true,
		EventQueryFinished: true,
		EventCacheHit:      true, EventCacheRevalidated: true, EventCacheEvicted: true,
		EventQueryAdmitted: true, EventQueryRejected: true,
		EventLimitTripped:     true,
		EventResourceSnapshot: true,
	}
	if len(EventKinds) != len(want) {
		t.Fatalf("EventKinds has %d entries, want %d", len(EventKinds), len(want))
	}
	seen := map[EventKind]bool{}
	for _, k := range EventKinds {
		if !want[k] {
			t.Fatalf("unexpected kind %q", k)
		}
		if seen[k] {
			t.Fatalf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}

// TestBusManySubscribersSeeSameOrder pins the total order: every subscriber
// observes events in the same ascending-Seq order.
func TestBusManySubscribersSeeSameOrder(t *testing.T) {
	b := NewBus()
	subs := make([]*Subscription, 3)
	for i := range subs {
		subs[i] = b.Subscribe(128)
	}
	for i := 0; i < 50; i++ {
		b.Publish(Event{Kind: EventLinkDiscovered, URL: fmt.Sprintf("http://x/%d", i)})
	}
	var first []uint64
	for i, s := range subs {
		s.Close()
		var seqs []uint64
		for _, ev := range s.Drain() {
			seqs = append(seqs, ev.Seq)
		}
		if len(seqs) != 50 {
			t.Fatalf("sub %d saw %d events", i, len(seqs))
		}
		if first == nil {
			first = seqs
			continue
		}
		for j := range seqs {
			if seqs[j] != first[j] {
				t.Fatalf("sub %d diverges at %d: %d vs %d", i, j, seqs[j], first[j])
			}
		}
	}
}
