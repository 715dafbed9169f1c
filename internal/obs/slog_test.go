package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestNewLoggerRejectsBadArgs(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "xml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
	for _, format := range []string{"", "text", "json"} {
		for _, level := range []string{"", "debug", "info", "warn", "warning", "error"} {
			if _, err := NewLogger(&bytes.Buffer{}, format, level); err != nil {
				t.Errorf("format=%q level=%q: %v", format, level, err)
			}
		}
	}
}

// TestLoggerQueryIDCorrelation: a logger built by NewLogger stamps every
// record with the query correlation id carried by the context — the same id
// events, journal lines and /debug/queries use.
func TestLoggerQueryIDCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithQueryID(context.Background(), 42)
	logger.InfoContext(ctx, "with id")
	logger.Info("without id")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"query_id":42`) {
		t.Errorf("correlated line missing query_id: %s", lines[0])
	}
	if strings.Contains(lines[1], "query_id") {
		t.Errorf("uncorrelated line has query_id: %s", lines[1])
	}

	// The wrapper survives WithAttrs/WithGroup derivation.
	derived := logger.With("component", "test").WithGroup("g")
	buf.Reset()
	derived.InfoContext(ctx, "derived")
	if out := buf.String(); !strings.Contains(out, `"query_id":42`) {
		t.Errorf("derived logger lost query_id: %s", out)
	}
}

// TestEventLoggerLevels: the bus consumer maps event kinds to levels —
// lifecycle at Info, degradation at Warn/Error, traversal detail at Debug —
// so an info-level logger yields an operational narrative while debug
// replays everything.
func TestEventLoggerLevels(t *testing.T) {
	events := []Event{
		{Kind: EventQueryStarted, Query: 7, Detail: "SELECT *", Seeds: []string{"http://pod/a"}},
		{Kind: EventLinkDiscovered, Query: 7, URL: "http://pod/b", Via: "http://pod/a", Extractor: "match"},
		{Kind: EventDocumentDereferenced, Query: 7, URL: "http://pod/b", Err: "boom"},
		{Kind: EventDocumentDereferenced, Query: 7, URL: "http://pod/c", Status: 200, Attempt: 1, Cached: true},
		{Kind: EventRetryScheduled, Query: 7, URL: "http://pod/b", Attempt: 1, Err: "boom"},
		{Kind: EventQueryFinished, Query: 7, Rows: 0, Err: "traversal failed"},
	}
	run := func(level string) string {
		var buf bytes.Buffer
		logger, err := NewLogger(&buf, "json", level)
		if err != nil {
			t.Fatal(err)
		}
		bus := NewBus()
		el := LogEvents(logger, bus)
		for _, ev := range events {
			bus.Publish(ev)
		}
		el.Close()
		return buf.String()
	}

	info := run("info")
	for _, want := range []string{
		`"msg":"query started"`,
		`"level":"WARN","msg":"dereference failed"`,
		`"msg":"retry scheduled"`,
		`"level":"ERROR","msg":"query finished"`,
		`"query_id":7`,
	} {
		if !strings.Contains(info, want) {
			t.Errorf("info log missing %q:\n%s", want, info)
		}
	}
	if strings.Contains(info, "link discovered") {
		t.Errorf("info log leaks debug detail:\n%s", info)
	}
	if got := strings.Count(strings.TrimSpace(info), "\n") + 1; got != 4 {
		t.Errorf("info log lines = %d, want 4:\n%s", got, info)
	}

	debug := run("debug")
	if !strings.Contains(debug, "link discovered") {
		t.Errorf("debug log missing traversal detail:\n%s", debug)
	}
	if !strings.Contains(debug, `"msg":"document dereferenced","url":"http://pod/c","attempt":1,"cached":true`) {
		t.Errorf("debug log lacks the attempt's number and cache flag:\n%s", debug)
	}
}

// TestEventLoggerNilSafe: closing a nil logger is a no-op.
func TestEventLoggerNilSafe(t *testing.T) {
	var el *EventLogger
	el.Close()
}
