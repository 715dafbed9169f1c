package exec

import (
	"context"
	"time"

	"ltqp/internal/obs"
)

// tracedBatch wraps an operator's batch stream in an obs span — and, when
// the owning query's event stream has an audience, a stage_started /
// stage_finished event pair carrying the live row count plus one
// morsel_processed event per forwarded batch (Rows = live rows of that
// batch) — so traced executions record per-operator timings and row counts
// (the join/iterator stages of a query's span tree). describe, when not
// nil, renders the operator for the span's "op" attribute and the events'
// Detail. With no trace on the context and no event subscriber this is a
// context lookup plus one atomic load: describe never runs and the inner
// stream is returned untouched, so unobserved queries pay nothing per
// batch.
func tracedBatch(ctx0 context.Context, env *Env, name string, describe func() string, inner func(context.Context) BatchStream) BatchStream {
	ev := env.Events
	if obs.SpanFromContext(ctx0) == nil && !ev.Active() {
		return inner(ctx0)
	}
	var attrs []obs.Attr
	detail := ""
	if describe != nil {
		if detail = describe(); len(detail) > 80 {
			detail = detail[:77] + "..."
		}
		attrs = []obs.Attr{obs.Str("op", detail)}
	}
	ctx, sp := obs.StartSpan(ctx0, name, attrs...)
	s := inner(ctx)
	ev.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: name, Detail: detail})
	start := time.Now()
	out := make(chan *Batch, batchChanCap)
	go func() {
		defer close(out)
		defer discard(s)
		rows, batches := 0, 0
		for b := range s {
			n := b.Len()
			if !sendBatch(ctx, out, b) {
				break
			}
			rows += n
			batches++
			ev.Emit(obs.Event{Kind: obs.EventMorselProcessed, Stage: name, Rows: n, Row: batches})
		}
		sp.SetAttr(obs.Int("rows", rows))
		sp.End()
		ev.Emit(obs.Event{Kind: obs.EventStageFinished, Stage: name, Rows: rows,
			DurationUS: time.Since(start).Microseconds(), Detail: detail})
	}()
	return out
}
