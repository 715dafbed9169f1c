package obs

import (
	"cmp"
	"time"

	"ltqp/internal/metrics"
)

// queryFold is the state one query's events fold into: its lifecycle, its
// Recorder, its topology and its memory peak, and — live only — the process
// instruments, the tracker record, the tenant rollup and the tail sampler.
// The live Emitter keeps one and a journal replay one per query, and both
// fold every event with apply, so a replay arrives at the live state. A
// replay's fold has no instruments, tracker or trace store: those no-op.
type queryFold struct {
	ID    int64
	Query string // the compacted query text, when anyone listened for it
	Seeds []string
	// End is query_finished's time, Duration its offset from the
	// Recorder's epoch, query_started's time.
	End      time.Time
	Duration time.Duration
	Finished bool
	Err      string

	// Recorder holds the request rows, result times and limit trips that
	// Stats, Degradation and ResultTimes read.
	*metrics.Recorder
	Topology *Topology // nil for a live query without Explain
	// PeakMem / MemBreakdown are the ledger high-water mark in bytes and the
	// per-layer breakdown of the highest resource_snapshot.
	PeakMem      int64
	MemBreakdown string

	exceeded bool // the query crossed its memory budget

	m       *Metrics
	o       *Observer
	track   *QueryRecord
	trace   *Trace
	traceID string
}

func newFold(id int64, rec *metrics.Recorder, topo *Topology, o *Observer, track *QueryRecord, trace *Trace) queryFold {
	return queryFold{ID: id, Recorder: rec, Topology: topo, m: On(o.M()), o: o, track: track, trace: trace, traceID: trace.ID()}
}

// apply folds one event. A query's events are applied in the order the bus
// numbered them: the Emitter holds its lock, a replay sorts on Seq.
func (f *queryFold) apply(ev Event) {
	at := ev.Time.Round(0) // wall clock only, as a replayed event has it
	f.Topology.Apply(ev)
	switch ev.Kind {
	case EventQueryStarted:
		f.Query, f.Seeds = ev.Detail, ev.Seeds
		f.SetEpoch(at)
		f.m.QueriesStarted.Inc()
		f.m.QueriesInFlight.Inc()
	case EventDocumentDereferenced:
		f.Record(RequestOf(ev))
		f.m.countAttempt(ev, f.traceID)
	case EventResultEmitted:
		f.RecordResult(at)
		f.track.AddResult()
		f.m.ResultsEmitted.Inc()
		if ev.Row == 1 {
			f.m.TimeToFirstResult.Observe(at.Sub(f.Epoch()).Seconds())
		}
	case EventLimitTripped:
		f.RecordLimitTrip(metrics.LimitTrip{Kind: ev.Reason, Origin: ev.Origin, URL: ev.URL,
			Limit: ev.Limit, Observed: ev.Observed})
		f.m.LimitTrips.With(ev.Reason).Inc()
	case EventResourceSnapshot:
		f.snapshot(ev)
	case EventQueryFinished:
		f.finish(ev, at)
	default:
		f.count(&ev)
	}
}

// count folds ev if its kind is only counted, and reports whether it was:
// the rest must be folded in the order the bus numbers them. It touches
// atomic counters alone, so a live emitter calls it without its lock.
func (f *queryFold) count(ev *Event) bool {
	switch ev.Kind {
	case EventQueryStarted, EventDocumentDereferenced, EventResultEmitted,
		EventLimitTripped, EventResourceSnapshot, EventQueryFinished:
		return false
	case EventLinkQueued:
		f.m.LinksQueued.Inc()
		f.m.LinkQueueDepth.Inc()
		if ev.Via != "" { // a seed was not discovered by an extractor
			f.m.LinksByExtractor.With(ev.Extractor).Inc()
		}
	case EventLinkPruned:
		if ev.Detail == EdgeScopePruned {
			f.m.LinksOutOfScope.Inc()
		}
	}
	return true
}

// snapshot folds a resource_snapshot: a budget crossing (Err set), or the
// query's final ledger totals for the memory instruments and tenant rollup.
func (f *queryFold) snapshot(ev Event) {
	if ev.MemPeak > f.PeakMem {
		f.PeakMem, f.MemBreakdown = ev.MemPeak, ev.Detail
	}
	if ev.Err != "" {
		f.exceeded = true
		f.m.MemBudgetExceeded.Inc()
		return
	}
	f.m.QueryMemPeak.Observe(float64(ev.MemPeak))
	if ev.Bytes > 0 {
		f.m.TenantMemCharged.With(cmp.Or(ev.Tenant, "default")).Add(ev.Bytes)
	}
	f.o.Res().Record(ev.Tenant, ev.Bytes, ev.MemPeak, f.exceeded)
}

// finish folds query_finished: the lifecycle counters, the tail sampler's
// keep decision, the duration histogram with the kept trace as exemplar,
// and the end of the tracker record.
func (f *queryFold) finish(ev Event, at time.Time) {
	f.End, f.Duration = at, at.Sub(f.Epoch())
	f.Finished, f.Err = true, ev.Err
	if ev.Err != "" {
		f.m.QueriesFailed.Inc()
	} else {
		f.m.QueriesSucceeded.Inc()
	}
	f.m.QueriesInFlight.Dec()
	var kept string
	if ts := f.o.TraceStore(); ts != nil && f.trace != nil {
		o := TraceOutcome{TraceID: f.traceID, QueryID: f.ID, Query: f.Query, Tenant: f.track.Tenant(),
			Start: f.Epoch(), Duration: f.Duration, Results: len(f.ResultTimes()), Err: f.Err,
			Degraded: f.Degradation().Degraded(), BudgetExceeded: f.exceeded}
		o.TTFR, _ = f.TimeToFirstResult()
		if ok, _ := ts.Offer(o, func(tr *TraceRecord) {
			tr.Root = f.trace.Snapshot()
			tr.Requests = RequestsJSON(f.Requests(), f.Epoch())
			tr.CriticalPath = QueryCritPath(f.Recorder, f.Topology)
		}); ok {
			kept = f.traceID
		}
	}
	f.m.QueryDuration.ObserveExemplar(f.Duration.Seconds(), kept)
	if f.o != nil {
		f.o.Tracker.Finish(f.track, ev.Err)
	}
}
