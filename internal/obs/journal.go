package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ltqp/internal/metrics"
	"ltqp/internal/resource"
)

// JournalRecord is the envelope shared by every line of a JSONL journal.
// The first line is a header (kind "journal_header") carrying the schema
// version; the last is a footer (kind "journal_footer") carrying totals;
// every line between is one Event, distinguished by its event kind. A
// reader dispatches on the kind field alone.
type JournalRecord struct {
	Kind string `json:"kind"`
}

// journalHeaderKind / journalFooterKind are the envelope record kinds.
const (
	journalHeaderKind = "journal_header"
	journalFooterKind = "journal_footer"
)

// JournalHeader is the first line of a journal: the versioned schema
// envelope (like TraceJSON for traces), plus enough provenance to know what
// wrote the file.
type JournalHeader struct {
	Kind      string    `json:"kind"`
	Schema    int       `json:"schema"`
	Engine    string    `json:"engine"`
	GoVersion string    `json:"go_version"`
	Created   time.Time `json:"created"`
}

// JournalFooter is the last line of a journal: how many events were written
// and how many the bounded subscription had to drop.
type JournalFooter struct {
	Kind    string `json:"kind"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// Journal subscribes to a bus and writes every event as one JSON line — a
// replayable record of everything the engine did, analyzed offline by
// `benchreport --replay-journal`. Writes happen on a dedicated goroutine so
// journaling never blocks the engine; the subscription buffer absorbs
// bursts and anything beyond it is counted in the footer's dropped tally.
type Journal struct {
	bw   *bufio.Writer
	sub  *Subscription
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	events int
	err    error
}

// JournalBuffer is the subscription depth of a journal writer: large enough
// that a traversal burst (hundreds of documents, thousands of links) fits
// while a line is being encoded.
const JournalBuffer = 8192

// NewJournal writes the versioned header to w, subscribes to the bus and
// starts journaling. Close flushes, appends the footer and detaches.
func NewJournal(w io.Writer, bus *Bus) (*Journal, error) {
	j := &Journal{
		bw:   bufio.NewWriter(w),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	hdr := JournalHeader{
		Kind:      journalHeaderKind,
		Schema:    EventSchemaVersion,
		Engine:    "ltqp-go",
		GoVersion: runtime.Version(),
		Created:   time.Now().UTC(),
	}
	if err := j.writeLine(hdr); err != nil {
		return nil, err
	}
	j.sub = bus.SubscribeNamed("journal", 0, JournalBuffer)
	go j.run()
	return j, nil
}

func (j *Journal) run() {
	defer close(j.done)
	for {
		select {
		case ev := <-j.sub.C:
			j.write(ev)
		case <-j.stop:
			// Detach first so no new events arrive, then drain the tail.
			j.sub.Close()
			for _, ev := range j.sub.Drain() {
				j.write(ev)
			}
			return
		}
	}
}

func (j *Journal) write(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.encode(ev); err != nil && j.err == nil {
		j.err = err
	}
	j.events++
}

func (j *Journal) encode(v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.bw.Write(data); err != nil {
		return err
	}
	return j.bw.WriteByte('\n')
}

func (j *Journal) writeLine(v interface{}) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.encode(v)
}

// Events reports how many events have been written so far.
func (j *Journal) Events() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// Close stops journaling: it detaches from the bus, writes the buffered
// tail, appends the footer and flushes. The first write error, if any, is
// returned. Safe to call once.
func (j *Journal) Close() error {
	close(j.stop)
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	footer := JournalFooter{Kind: journalFooterKind, Events: j.events, Dropped: j.sub.Dropped()}
	if err := j.encode(footer); err != nil && j.err == nil {
		j.err = err
	}
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// ---------------------------------------------------------------------------
// Offline replay

// ReplayPhase is one reconstructed pipeline phase of a replayed query.
type ReplayPhase struct {
	Name     string
	Start    time.Duration // offset from query start
	Duration time.Duration
}

// QueryReplay is the offline reconstruction of one query's execution from
// its journal events: what a live observer would have seen, recovered
// entirely from recorded timestamps. Its fold is the live query's — the
// same apply over the same events — so its Recorder has the live run's
// Stats, Degradation (limit trips included) and ResultTimes, its Topology
// the live Explain report's, and PeakMem the live ledger's peak.
type QueryReplay struct {
	queryFold

	Phases []ReplayPhase

	LinksDiscovered int
	LinksQueued     int
	LinksPruned     int
	Retries         int
}

// JournalSummary is a parsed journal: header metadata plus one replay per
// query found in the stream.
type JournalSummary struct {
	Schema    int
	GoVersion string
	Created   time.Time
	Events    int
	Dropped   uint64
	HasFooter bool
	Queries   []*QueryReplay
}

// Replay returns the replay for the given query id, or nil.
func (s *JournalSummary) Replay(id int64) *QueryReplay {
	for _, q := range s.Queries {
		if q.ID == id {
			return q
		}
	}
	return nil
}

// ReadJournal parses a JSONL journal and reconstructs each query's
// timeline. It rejects journals with a missing or mismatched schema.
func ReadJournal(r io.Reader) (*JournalSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	s := &JournalSummary{}
	byID := map[int64]*QueryReplay{}
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			// A torn final line is what a crashed writer leaves behind;
			// treat it as truncation. Malformed JSON mid-file is corruption.
			if !sc.Scan() {
				break
			}
			return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
		}
		switch rec.Kind {
		case journalHeaderKind:
			var hdr JournalHeader
			if err := json.Unmarshal([]byte(line), &hdr); err != nil {
				return nil, fmt.Errorf("journal header: %w", err)
			}
			if hdr.Schema != EventSchemaVersion {
				return nil, fmt.Errorf("journal schema %d not supported (want %d)", hdr.Schema, EventSchemaVersion)
			}
			s.Schema = hdr.Schema
			s.GoVersion = hdr.GoVersion
			s.Created = hdr.Created
		case journalFooterKind:
			var f JournalFooter
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				return nil, fmt.Errorf("journal footer: %w", err)
			}
			s.Dropped = f.Dropped
			s.HasFooter = true
		default:
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Schema == 0 {
		return nil, fmt.Errorf("journal has no header (not an ltqp event journal?)")
	}
	s.Events = len(events)

	// Events were written in delivery order; concurrent publishers can
	// interleave by a few positions, so restore the total order.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })

	replay := func(ev Event) *QueryReplay {
		q, ok := byID[ev.Query]
		if !ok {
			q = &QueryReplay{queryFold: newFold(ev.Query, metrics.NewRecorder(), NewTopology(), nil, nil, nil)}
			q.SetEpoch(ev.Time) // until its query_started, if the journal has it
			byID[ev.Query] = q
			s.Queries = append(s.Queries, q)
		}
		return q
	}
	for _, ev := range events {
		q := replay(ev)
		q.apply(ev)
		switch ev.Kind {
		case EventStageFinished:
			if isCorePhase(ev.Stage) {
				dur := time.Duration(ev.DurationUS) * time.Microsecond
				q.Phases = append(q.Phases, ReplayPhase{Name: ev.Stage,
					Start: ev.Time.Add(-dur).Sub(q.Epoch()), Duration: dur})
			}
		case EventLinkDiscovered:
			q.LinksDiscovered++
		case EventLinkQueued:
			q.LinksQueued++
		case EventLinkPruned:
			q.LinksPruned++
		case EventRetryScheduled:
			q.Retries++
		}
	}
	return s, nil
}

// isCorePhase reports whether a stage name is one of the engine's four
// pipeline phases (as opposed to a per-operator iterator stage).
func isCorePhase(name string) bool {
	switch name {
	case "parse", "plan", "traverse", "exec":
		return true
	}
	return false
}

// SlowestDocs returns the n slowest successful-or-failed dereferences,
// slowest first.
func (q *QueryReplay) SlowestDocs(n int) []metrics.Request {
	docs := q.Requests()
	sort.SliceStable(docs, func(i, j int) bool { return docs[i].Duration() > docs[j].Duration() })
	if n > 0 && len(docs) > n {
		docs = docs[:n]
	}
	return docs
}

// WriteReport renders the replay as a human-readable timeline analysis:
// per-phase wall clock, TTFR, the dereference concurrency profile, and the
// top-N slowest documents — the offline counterpart of watching the live
// SSE feed.
func (s *JournalSummary) WriteReport(w io.Writer, topN int) {
	fmt.Fprintf(w, "journal: schema %d, %d events", s.Schema, s.Events)
	if s.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped at capture time)", s.Dropped)
	}
	if !s.HasFooter {
		fmt.Fprint(w, " (no footer: journal may be truncated)")
	}
	fmt.Fprintf(w, ", %d queries\n", len(s.Queries))
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	for _, q := range s.Queries {
		fmt.Fprintf(w, "\nquery #%d: %s\n", q.ID, q.Query)
		if len(q.Seeds) > 0 {
			fmt.Fprintf(w, "  seeds: %s\n", strings.Join(q.Seeds, " "))
		}
		status := "did not finish (journal truncated?)"
		if q.Finished {
			status = fmt.Sprintf("finished in %s", ms(q.Duration))
			if q.Err != "" {
				status += " with error: " + q.Err
			}
		}
		ttfr := "no results"
		if t, ok := q.TimeToFirstResult(); ok {
			ttfr = ms(t)
		}
		fmt.Fprintf(w, "  %s — %d results, first after %s\n", status, len(q.ResultTimes()), ttfr)
		if len(q.Phases) > 0 {
			var parts []string
			for _, p := range q.Phases {
				parts = append(parts, fmt.Sprintf("%s %s (at +%s)", p.Name, ms(p.Duration), ms(p.Start)))
			}
			fmt.Fprintf(w, "  phases: %s\n", strings.Join(parts, " | "))
		}
		// Docs has a row per attempt; the topology a node per document.
		fmt.Fprintf(w, "  traversal: %d documents (%d failed), %d links discovered (%d queued, %d pruned), %d retries\n",
			q.Topology.summary().Documents, q.Stats().FailedDocuments, q.LinksDiscovered, q.LinksQueued, q.LinksPruned, q.Retries)
		if q.PeakMem > 0 {
			fmt.Fprintf(w, "  peak memory: %s", resource.FormatBytes(q.PeakMem))
			if q.MemBreakdown != "" {
				fmt.Fprintf(w, " (%s)", q.MemBreakdown)
			}
			fmt.Fprintln(w)
		}
		if docs := q.Requests(); len(docs) > 0 {
			peak, mean := metrics.Concurrency(docs)
			fmt.Fprintf(w, "  dereference concurrency: max %d in flight, mean %.2f\n", peak, mean)
			fmt.Fprintf(w, "  slowest documents:\n")
			for _, d := range q.SlowestDocs(topN) {
				st := fmt.Sprintf("%d", d.Status)
				if d.Failed() {
					st = "ERR"
				}
				fmt.Fprintf(w, "    %8s %5s %s\n", ms(d.Duration()), st, d.URL)
			}
		}
	}
}
