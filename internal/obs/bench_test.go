package obs

import (
	"context"
	"testing"

	"ltqp/internal/metrics"
)

// BenchmarkStartSpanUntraced measures the opt-out cost the hot paths pay
// when tracing is off: one context lookup, no allocation.
func BenchmarkStartSpanUntraced(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "deref")
		sp.End()
	}
}

// BenchmarkStartSpanTraced measures the per-span cost with tracing on.
func BenchmarkStartSpanTraced(b *testing.B) {
	ctx, _ := NewTrace(context.Background(), "query")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "deref")
		sp.End()
	}
}

// BenchmarkTraceOff is the tracing subsystem's opt-out acceptance gate:
// everything a hot path touches when tracing is disabled — starting a span
// on an untraced context, rendering its (empty) traceparent and trace id,
// recording an exemplar with no trace id, and offering an outcome to a nil
// trace store — must cost 0 allocs/op. The attrs case is the shape of the
// engine's per-document spans: typed attributes built at the call site,
// which must neither format nor let the variadic slice escape.
func BenchmarkTraceOff(b *testing.B) {
	ctx := context.Background()
	h := NewRegistry().Histogram("x", "", DefaultLatencyBuckets)
	var store *TraceStore
	var log *ServerSpanLog
	b.Run("paths", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := StartSpan(ctx, "deref")
			if tp := sp.Traceparent(); tp != "" {
				b.Fatal("untraced span rendered a traceparent")
			}
			h.ObserveExemplar(0.003, sp.TraceIDString())
			store.Offer(TraceOutcome{Duration: 1}, nil)
			log.Record(ServerSpan{})
			sp.End()
		}
	})
	b.Run("attrs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := StartSpan(ctx, "document", Str("url", "http://pod/x"), Int("depth", i), Bool("cached", true))
			sp.SetAttr(Int("triples", i), Int64("bytes", int64(i)))
			sp.End()
		}
	})
}

// TestTraceOffAttrsDoNotAllocate pins BenchmarkTraceOff/attrs at 0 allocs/op
// in the ordinary test run.
func TestTraceOffAttrsDoNotAllocate(t *testing.T) {
	ctx := context.Background()
	n := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		n++
		_, sp := StartSpan(ctx, "document", Str("url", "http://pod/x"), Int("depth", n), Bool("cached", true))
		sp.SetAttr(Int("triples", n), Int64("bytes", int64(n)))
		sp.End()
	}); allocs != 0 {
		t.Errorf("untraced StartSpan+SetAttr with typed attrs: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("x", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x", "", DefaultLatencyBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}

func BenchmarkNilMetricsChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		On(nil).DocumentsFetched.Inc()
	}
}

// BenchmarkEventPublishNilBus measures what instrumented code pays when the
// engine carries no event bus at all: a nil check. Must stay 0 allocs/op.
func BenchmarkEventPublishNilBus(b *testing.B) {
	var bus *Bus
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: EventResultEmitted, Row: i})
	}
}

// BenchmarkEventPublishNoSubscriber measures the opt-out cost with a bus
// attached but nobody listening — the common production configuration: one
// atomic load. Must stay 0 allocs/op (the acceptance gate for the event
// instrumentation on the query hot path).
func BenchmarkEventPublishNoSubscriber(b *testing.B) {
	bus := NewBus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: EventResultEmitted, Row: i})
	}
}

// BenchmarkEmitterNoSubscriber measures the same opt-out through the
// per-query Emitter wrapper core/deref/exec actually hold.
func BenchmarkEmitterNoSubscriber(b *testing.B) {
	e := NewEmitter(NewBus(), 1, nil, nil, nil, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Emit(Event{Kind: EventLinkDiscovered, URL: "http://pod/a", Via: "http://pod/b"})
	}
}

// BenchmarkEmitterRecorderOnly measures the emitter every query has without
// a bus or Explain: it holds only the query's recorder, and an event that is
// not a dereference attempt has nothing to fold. Must stay 0 allocs/op.
func BenchmarkEmitterRecorderOnly(b *testing.B) {
	e := NewEmitter(nil, 1, nil, metrics.NewRecorder(), nil, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Emit(Event{Kind: EventLinkDiscovered, URL: "http://pod/a", Via: "http://pod/b"})
	}
}

// BenchmarkEventPublishOneSubscriber measures the opt-in cost: one attached
// subscriber with a buffer large enough that nothing drops.
func BenchmarkEventPublishOneSubscriber(b *testing.B) {
	bus := NewBus()
	s := bus.Subscribe(1024)
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range s.C {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Kind: EventResultEmitted, Row: i})
	}
	b.StopTimer()
	s.Close()
	close(s.ch)
	<-done
}
