package metrics

import (
	"fmt"
	"strings"
	"time"
)

// row is one bar of a waterfall chart.
type row struct {
	// label is the left column, shortened from the left to fit.
	label string
	// status is the short status column ("200", "ERR", "cache").
	status string
	bytes  int64
	// start and end position the bar, as offsets from any common origin;
	// the chart re-bases on the earliest start.
	start, end time.Duration
	// note is printed after the bar.
	note string
	// mark draws the bar with '#' instead of '='.
	mark bool
}

// Chart draws requests as an ASCII waterfall on one time axis, in the order
// given — the browser-network-tab view of the paper's Figs. 4 and 5. Rows
// whose URL is in mark are filled with '#' (the critical path). It is the
// one renderer behind the live waterfall, the kept-trace view and the
// critical-path chains, so all of them show a dereference alike. Returns ""
// for no requests.
func Chart(reqs []Request, mark map[string]bool, width int) string {
	return render(waterfallRows(reqs, mark), width)
}

// waterfallRows is the one place a recorded dereference becomes a chart row:
// its status column ("ERR" for an error, "cache" for a cache hit), its size,
// and a note naming the discovery reason, the retry and the server-reported
// share of the fetch when it rounds to a non-zero value.
func waterfallRows(reqs []Request, mark map[string]bool) []row {
	rows := make([]row, 0, len(reqs))
	for _, q := range reqs {
		status := fmt.Sprintf("%d", q.Status)
		if q.Err != "" {
			status = "ERR"
		}
		if q.Cached {
			status = "cache"
		}
		note := q.Reason
		if q.Attempt > 1 {
			note += fmt.Sprintf(" (retry %d)", q.Attempt-1)
		}
		// Only a share that shows at the note's 0.1 ms precision.
		if us := q.Server.Microseconds(); us >= 50 {
			note += fmt.Sprintf(" (server %.1fms)", float64(us)/1000)
		}
		rows = append(rows, row{
			label:  q.URL,
			status: status,
			bytes:  q.Bytes,
			start:  q.Start.Sub(reqs[0].Start),
			end:    q.End.Sub(reqs[0].Start),
			note:   strings.TrimSpace(note),
			mark:   mark[q.URL],
		})
	}
	return rows
}

// labelWidth is the width of the chart's label column.
const labelWidth = 44

// render draws the rows in the order given, with a bar area width columns
// wide (default 60, minimum 20). Returns "" for no rows.
func render(rows []row, width int) string {
	if len(rows) == 0 {
		return ""
	}
	if width == 0 {
		width = 60
	}
	width = max(width, 20)
	lo, hi := rows[0].start, rows[0].end
	for _, r := range rows {
		lo, hi = min(lo, r.start), max(hi, r.end)
	}
	total := hi - lo
	if total <= 0 {
		total = time.Millisecond
	}
	scale := func(t time.Duration) int {
		return min(max(int(int64(t-lo)*int64(width)/int64(total)), 0), width-1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %6s %8s %7s  %s\n", labelWidth, "document", "status", "bytes", "ms", "timeline")
	for _, r := range rows {
		bar := []byte(strings.Repeat(" ", width))
		fill := byte('=')
		if r.mark {
			fill = '#'
		}
		s, e := scale(r.start), scale(r.end)
		for i := s; i <= e; i++ {
			bar[i] = fill
		}
		bar[s] = '|'
		fmt.Fprintf(&b, "%-*s %6s %8d %7.1f  [%s] %s\n",
			labelWidth, shorten(r.label, labelWidth), r.status, r.bytes,
			float64((r.end-r.start).Microseconds())/1000.0, string(bar), r.note)
	}
	return b.String()
}

// shorten abbreviates long labels for display, keeping the tail.
func shorten(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return "…" + s[len(s)-max+1:]
}
