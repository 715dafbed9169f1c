package obs

import (
	"strconv"
	"strings"
	"time"
)

// Server-Timing (https://www.w3.org/TR/server-timing/) lets podserver tell
// the client how much of a dereference's wall time was spent server-side
// (handler work, configured latency, injected faults) versus on the wire.
// internal/deref parses the response header and attributes the total to
// the request's span and metrics.Request.Server, so the critical-path
// analysis can split gating time into server cost and network cost.

// ServerTimingHeader is the response header name.
const ServerTimingHeader = "Server-Timing"

// FormatServerTiming renders one metric entry, e.g. `app;dur=12.345`.
// Durations are milliseconds with microsecond precision, per the spec's
// recommended unit.
func FormatServerTiming(name string, d time.Duration) string {
	if d < 0 {
		d = 0
	}
	return name + ";dur=" + strconv.FormatFloat(float64(d.Microseconds())/1e3, 'f', 3, 64)
}

// ParseServerTiming sums every dur= parameter across all Server-Timing
// header values (a response may carry several, each a comma-separated
// metric list) and returns the total server-reported duration. Malformed
// entries are skipped; a response without the header yields zero. It walks
// the values in place and allocates nothing.
func ParseServerTiming(vals []string) time.Duration {
	var totalMS float64
	for _, v := range vals {
		for more := true; more; {
			var entry string
			entry, v, more = strings.Cut(v, ",")
			// The metric name comes first; parameters follow, each after a ';'.
			_, params, hasParam := strings.Cut(entry, ";")
			for hasParam {
				var p string
				p, params, hasParam = strings.Cut(params, ";")
				if rest, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
					if f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil && f > 0 {
						totalMS += f
					}
				}
			}
		}
	}
	if totalMS <= 0 {
		return 0
	}
	return time.Duration(totalMS * float64(time.Millisecond))
}
