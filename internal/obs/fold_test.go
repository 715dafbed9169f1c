package obs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"ltqp/internal/metrics"
	"ltqp/internal/resource"
)

// TestFoldIsLiveAndReplay: every query-level occurrence folds, as one event,
// into the query's recorder, the process instruments, the tracker record
// and the tenant rollup; and a journal of the same events replays to the
// live recorder's result times, limit trips and memory peak.
func TestFoldIsLiveAndReplay(t *testing.T) {
	o := NewObserver()
	o.TraceQueries = false
	var buf bytes.Buffer
	j, err := NewJournal(&buf, o.Events)
	if err != nil {
		t.Fatal(err)
	}
	track := o.Tracker.Start(9, "SELECT * WHERE { ?s ?p ?o }", []string{"http://pod/a"}, nil)
	rec := metrics.NewRecorder()
	e := NewEmitter(o.Events, 9, nil, rec, o, track, nil)
	epoch, ms := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC), time.Millisecond
	for _, ev := range []Event{
		at(epoch, 0, Event{Kind: EventQueryStarted, Detail: "SELECT * WHERE { ?s ?p ?o }"}),
		at(epoch, 1*ms, Event{Kind: EventLinkQueued, URL: "http://pod/a", Extractor: "seed"}),
		at(epoch, 2*ms, Event{Kind: EventLinkQueued, URL: "http://pod/b", Via: "http://pod/a", Extractor: "ldp"}),
		at(epoch, 2*ms, Event{Kind: EventLinkPruned, URL: "http://evil/x", Via: "http://pod/a", Detail: EdgeScopePruned}),
		at(epoch, 2*ms, Event{Kind: EventLimitTripped, URL: "http://evil/x", Origin: "http://evil",
			Reason: "scope", Detail: "scope at http://evil (0 > limit 0)"}),
		at(epoch, 4*ms, Event{Kind: EventResultEmitted, Row: 1}),
		at(epoch, 5*ms, Event{Kind: EventResourceSnapshot, MemBytes: 900, MemPeak: 900, Err: "over budget"}),
		at(epoch, 6*ms, Event{Kind: EventResultEmitted, Row: 2}),
		at(epoch, 7*ms, Event{Kind: EventResourceSnapshot, Tenant: "alice", Bytes: 1200, MemPeak: 950}),
		at(epoch, 8*ms, Event{Kind: EventQueryFinished, Rows: 2, Err: "over budget"}),
	} {
		e.Emit(ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if got := rec.ResultTimes(); !slices.Equal(got, []time.Duration{4 * ms, 6 * ms}) {
		t.Errorf("result times = %v", got)
	}
	want := []metrics.LimitTrip{{Kind: "scope", Origin: "http://evil", URL: "http://evil/x"}}
	if got := rec.Degradation().LimitTrips; !reflect.DeepEqual(got, want) {
		t.Errorf("limit trips = %+v, want %+v", got, want)
	}
	m := o.Metrics
	for name, got := range map[string]int64{
		"started": m.QueriesStarted.Value(), "failed": m.QueriesFailed.Value(), "in flight": m.QueriesInFlight.Value(),
		"results": m.ResultsEmitted.Value(), "ttfr": m.TimeToFirstResult.Count(), "durations": m.QueryDuration.Count(),
		"queued": m.LinksQueued.Value(), "depth": m.LinkQueueDepth.Value(), "by ldp": m.LinksByExtractor.With("ldp").Value(),
		"by seed": m.LinksByExtractor.With("seed").Value(), "out of scope": m.LinksOutOfScope.Value(),
		"trips": m.LimitTrips.With("scope").Value(), "exceeded": m.MemBudgetExceeded.Value(),
		"peaks": m.QueryMemPeak.Count(), "charged": m.TenantMemCharged.With("alice").Value(),
		"tracked results": int64(track.Results()),
	} {
		want := map[string]int64{"started": 1, "failed": 1, "in flight": 0, "results": 2, "ttfr": 1, "durations": 1,
			"queued": 2, "depth": 2, "by ldp": 1, "by seed": 0, "out of scope": 1, "trips": 1, "exceeded": 1,
			"peaks": 1, "charged": 1200, "tracked results": 2}[name]
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if !track.Done() || track.Err() != "over budget" || len(o.Tracker.InFlight()) != 0 {
		t.Errorf("tracker record done=%v err=%q", track.Done(), track.Err())
	}
	usage := []resource.TenantUsage{{Tenant: "alice", Queries: 1, Charged: 1200, MaxPeak: 950, Exceeded: 1}}
	if got := o.Resources.Snapshot(); !reflect.DeepEqual(got, usage) {
		t.Errorf("tenant rollup = %+v, want %+v", got, usage)
	}

	s, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := s.Replay(9)
	if q == nil {
		t.Fatal("query 9 not in the journal")
	}
	if got := q.ResultTimes(); !slices.Equal(got, rec.ResultTimes()) {
		t.Errorf("replayed result times %v, live %v", got, rec.ResultTimes())
	}
	if got := q.Degradation(); !reflect.DeepEqual(got, rec.Degradation()) {
		t.Errorf("replayed degradation %+v, live %+v", got, rec.Degradation())
	}
	if !q.Finished || q.Err != "over budget" || q.Duration != 8*ms || q.PeakMem != 950 {
		t.Errorf("replay finished=%v err=%q duration=%v peak=%d", q.Finished, q.Err, q.Duration, q.PeakMem)
	}
}
