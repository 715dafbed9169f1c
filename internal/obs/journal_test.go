package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// emitSyntheticQuery publishes a plausible single-query event sequence with
// fixed timestamps, returning its id.
func emitSyntheticQuery(b *Bus, id int64) time.Time {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	e := NewEmitter(b, id, nil, nil, nil, nil, nil)
	e.Emit(Event{Kind: EventQueryStarted, Time: t0, Detail: "SELECT ?x WHERE { ?x ?p ?o }",
		Seeds: []string{"http://pod/a"}})
	e.Emit(Event{Kind: EventStageStarted, Stage: "parse", Time: t0})
	e.Emit(Event{Kind: EventStageFinished, Stage: "parse", Time: at(1), DurationUS: 1000})
	e.Emit(Event{Kind: EventStageStarted, Stage: "plan", Time: at(1)})
	e.Emit(Event{Kind: EventStageFinished, Stage: "plan", Time: at(2), DurationUS: 1000})
	e.Emit(Event{Kind: EventStageStarted, Stage: "traverse", Time: at(2)})
	// Two overlapping dereferences: a [2,12], b [4,10] → max 2 in flight.
	e.Emit(Event{Kind: EventDocumentDereferenced, URL: "http://pod/a", Status: 200,
		Triples: 10, Bytes: 500, Time: at(12), DurationUS: 10000})
	e.Emit(Event{Kind: EventLinkDiscovered, URL: "http://pod/b", Via: "http://pod/a", Extractor: "ldp"})
	e.Emit(Event{Kind: EventLinkQueued, URL: "http://pod/b", Via: "http://pod/a", Depth: 1})
	e.Emit(Event{Kind: EventLinkDiscovered, URL: "http://pod/a", Via: "http://pod/a", Extractor: "ldp"})
	e.Emit(Event{Kind: EventLinkPruned, URL: "http://pod/a", Via: "http://pod/a", Detail: "self"})
	e.Emit(Event{Kind: EventRetryScheduled, URL: "http://pod/b", Attempt: 1, DelayUS: 2000, Err: "status 503"})
	e.Emit(Event{Kind: EventDocumentDereferenced, URL: "http://pod/b", Status: 200,
		Triples: 5, Bytes: 200, Time: at(10), DurationUS: 6000})
	e.Emit(Event{Kind: EventResultEmitted, Row: 1, Time: at(15)})
	e.Emit(Event{Kind: EventStageFinished, Stage: "traverse", Time: at(16), DurationUS: 14000})
	e.Emit(Event{Kind: EventStageStarted, Stage: "exec", Time: at(2)})
	e.Emit(Event{Kind: EventResultEmitted, Row: 2, Time: at(17)})
	e.Emit(Event{Kind: EventStageFinished, Stage: "exec", Time: at(18), DurationUS: 16000})
	e.Emit(Event{Kind: EventQueryFinished, Rows: 2, Time: at(18), DurationUS: 18000})
	return t0
}

func TestJournalRoundTrip(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	emitSyntheticQuery(bus, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var hdr JournalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Kind != "journal_header" || hdr.Schema != EventSchemaVersion || hdr.GoVersion == "" {
		t.Fatalf("header = %+v", hdr)
	}
	var foot JournalFooter
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &foot); err != nil {
		t.Fatalf("footer: %v", err)
	}
	if foot.Kind != "journal_footer" || foot.Events != 19 || foot.Dropped != 0 {
		t.Fatalf("footer = %+v", foot)
	}

	s, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 19 || !s.HasFooter || len(s.Queries) != 1 {
		t.Fatalf("summary = %+v", s)
	}
	q := s.Replay(1)
	if q == nil {
		t.Fatal("no replay for query 1")
	}
	if !q.Finished || len(q.ResultTimes()) != 2 || q.Err != "" {
		t.Fatalf("replay outcome = %+v", q)
	}
	if q.Duration != 18*time.Millisecond {
		t.Fatalf("duration = %v", q.Duration)
	}
	if ttfr, ok := q.TimeToFirstResult(); !ok || ttfr != 15*time.Millisecond {
		t.Fatalf("ttfr = %v (has=%v)", ttfr, ok)
	}
	if len(q.Phases) != 4 {
		t.Fatalf("phases = %+v", q.Phases)
	}
	if q.Phases[0].Name != "parse" || q.Phases[0].Duration != time.Millisecond {
		t.Fatalf("parse phase = %+v", q.Phases[0])
	}
	if st := q.Stats(); st.Requests != 2 || st.Failed != 0 || st.MaxParallel != 2 {
		t.Fatalf("docs = %+v, stats %+v", q.Requests(), st)
	}
	if q.LinksDiscovered != 2 || q.LinksQueued != 1 || q.LinksPruned != 1 || q.Retries != 1 {
		t.Fatalf("link tallies = %+v", q)
	}
	slow := q.SlowestDocs(1)
	if len(slow) != 1 || slow[0].URL != "http://pod/a" {
		t.Fatalf("slowest = %+v", slow)
	}
}

func TestJournalMultipleQueries(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	emitSyntheticQuery(bus, 1)
	emitSyntheticQuery(bus, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries) != 2 || s.Replay(2) == nil {
		t.Fatalf("queries = %+v", s.Queries)
	}
}

func TestReadJournalRejectsBadInput(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader(`{"kind":"query_started"}`)); err == nil {
		t.Fatal("journal without header must be rejected")
	}
	bad := `{"kind":"journal_header","schema":99}`
	if _, err := ReadJournal(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
	if _, err := ReadJournal(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage line must be rejected")
	}
}

// TestReadJournalTornFinalLine: a writer killed mid-write leaves a partial
// JSON line at the tail; the reader treats it as truncation (the torn line
// is dropped) while malformed JSON mid-file is still rejected as corruption.
func TestReadJournalTornFinalLine(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	emitSyntheticQuery(bus, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final line mid-JSON.
	full := strings.TrimSpace(buf.String())
	torn := full[:len(full)-10]
	s, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must read as truncation: %v", err)
	}
	if s.HasFooter {
		t.Fatal("torn journal must report a missing footer")
	}
	if s.Replay(1) == nil {
		t.Fatal("torn journal lost its query")
	}

	// The same tear mid-file is corruption.
	lines := strings.Split(full, "\n")
	lines[2] = lines[2][:len(lines[2])/2]
	if _, err := ReadJournal(strings.NewReader(strings.Join(lines, "\n"))); err == nil {
		t.Fatal("mid-file corruption must be rejected")
	}
}

func TestReadJournalTruncated(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	emitSyntheticQuery(bus, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the footer and the final query_finished line.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	cut := strings.Join(lines[:len(lines)-2], "\n")
	s, err := ReadJournal(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if s.HasFooter {
		t.Fatal("truncated journal must report a missing footer")
	}
	q := s.Replay(1)
	if q == nil || q.Finished {
		t.Fatalf("truncated query must be unfinished: %+v", q)
	}
	// The per-event tally still counts the results that did land.
	if n := len(q.ResultTimes()); n != 2 {
		t.Fatalf("results = %d, want 2 from result_emitted tally", n)
	}
	var report strings.Builder
	s.WriteReport(&report, 3)
	if !strings.Contains(report.String(), "truncated") {
		t.Fatalf("report must flag truncation:\n%s", report.String())
	}
}

func TestJournalReport(t *testing.T) {
	bus := NewBus()
	var buf bytes.Buffer
	j, err := NewJournal(&buf, bus)
	if err != nil {
		t.Fatal(err)
	}
	emitSyntheticQuery(bus, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	s.WriteReport(&out, 2)
	text := out.String()
	for _, want := range []string{
		"1 queries", "query #1", "seeds: http://pod/a",
		"2 results", "first after 15.0ms",
		"parse 1.0ms", "traverse 14.0ms",
		"2 documents (0 failed)", "2 links discovered (1 queued, 1 pruned), 1 retries",
		"max 2 in flight", "slowest documents", "http://pod/a",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}
