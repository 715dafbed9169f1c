package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestRenderEmpty(t *testing.T) {
	if got := render(nil, 0); got != "" {
		t.Errorf("empty rows must render empty, got %q", got)
	}
	if got := Chart(nil, nil, 40); got != "" {
		t.Errorf("no requests must chart empty, got %q", got)
	}
}

func TestRenderBasics(t *testing.T) {
	rows := []row{
		{label: "http://x/a.ttl", status: "200", bytes: 100, start: 0, end: 10 * time.Millisecond, note: "seed"},
		{label: "http://x/b.ttl", status: "200", bytes: 200, start: 10 * time.Millisecond, end: 20 * time.Millisecond},
	}
	out := render(rows, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "document") || !strings.Contains(lines[0], "timeline") {
		t.Errorf("header line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "http://x/a.ttl") || !strings.Contains(lines[1], "seed") {
		t.Errorf("row 1 missing label or note: %q", lines[1])
	}
	if !strings.Contains(lines[1], "|===") {
		t.Errorf("bar must start with '|' and fill with '=': %q", lines[1])
	}
	// b starts when a ends: its bar must begin around the middle.
	aStart := strings.IndexByte(lines[1], '[')
	bBar := lines[2][aStart:]
	if strings.IndexByte(bBar, '|') < 15 {
		t.Errorf("second bar not offset on the shared axis: %q", lines[2])
	}
}

func TestRenderMarkUsesHashFill(t *testing.T) {
	rows := []row{
		{label: "a", status: "200", start: 0, end: 10 * time.Millisecond, mark: true},
		{label: "b", status: "200", start: 0, end: 10 * time.Millisecond},
	}
	lines := strings.Split(strings.TrimRight(render(rows, 30), "\n"), "\n")[1:]
	if !strings.Contains(lines[0], "#") || strings.Contains(lines[0], "=") {
		t.Errorf("marked row must fill with '#': %q", lines[0])
	}
	if !strings.Contains(lines[1], "=") || strings.Contains(lines[1], "#") {
		t.Errorf("unmarked row must fill with '=': %q", lines[1])
	}
}

func TestRenderRebasesOnEarliestStart(t *testing.T) {
	// All offsets shifted by 1h: the chart must re-base, not scale to 1h.
	base := time.Hour
	rows := []row{
		{label: "a", start: base, end: base + 10*time.Millisecond},
		{label: "b", start: base + 10*time.Millisecond, end: base + 20*time.Millisecond},
	}
	lines := strings.Split(strings.TrimRight(render(rows, 40), "\n"), "\n")[1:]
	if !strings.Contains(lines[0], "|=") {
		t.Errorf("first bar must span from the left after re-basing: %q", lines[0])
	}
}

func TestShortenKeepsTail(t *testing.T) {
	if got := shorten("short", 10); got != "short" {
		t.Errorf("shorten must keep short labels: %q", got)
	}
	long := "http://example.org/pods/00000/profile/card"
	got := shorten(long, 20)
	if !strings.HasPrefix(got, "…") || !strings.HasSuffix(got, "profile/card") {
		t.Errorf("shorten must keep the tail behind an ellipsis: %q", got)
	}
}
