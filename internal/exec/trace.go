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
// (the join/iterator stages of a query's span tree). With no trace on the
// context and no event subscriber this is a context lookup plus one atomic
// load: the inner stream is returned untouched, so unobserved queries pay
// nothing per batch.
func tracedBatch(ctx0 context.Context, env *Env, name string, attrs []obs.Attr, inner func(context.Context) BatchStream) BatchStream {
	ctx, sp := obs.StartSpan(ctx0, name, attrs...)
	s := inner(ctx)
	ev := env.Events
	if sp == nil && !ev.Active() {
		return s
	}
	ev.Emit(obs.Event{Kind: obs.EventStageStarted, Stage: name, Detail: attrDetail(attrs)})
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
			DurationUS: time.Since(start).Microseconds(), Detail: attrDetail(attrs)})
	}()
	return out
}

// attrDetail pulls the operator description out of span attributes for
// event annotation.
func attrDetail(attrs []obs.Attr) string {
	for _, a := range attrs {
		if a.Key == "op" {
			return a.Value
		}
	}
	return ""
}

// opAttrs abbreviates an operator description for span annotation.
func opAttrs(desc string) []obs.Attr {
	if len(desc) > 80 {
		desc = desc[:77] + "..."
	}
	return []obs.Attr{obs.Str("op", desc)}
}
