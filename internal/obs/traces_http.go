package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ltqp/internal/metrics"
)

// /debug/traces — the tail-sampled trace store's exposition endpoint.
//
//	GET /debug/traces              list kept traces (newest first)
//	GET /debug/traces/<trace-id>   one kept trace, full JSON
//	GET /debug/traces/<trace-id>?format=waterfall
//	                               ASCII waterfall with the critical path
//	                               highlighted, plus the gating chains
//
// The per-trace waterfall marks critical-path rows with '#' fill so the
// gating dereference chain stands out among concurrent fetches.

// traceSummaryJSON is the /debug/traces listing shape for one kept trace.
type traceSummaryJSON struct {
	TraceID        string    `json:"trace_id"`
	QueryID        int64     `json:"query_id"`
	Query          string    `json:"query,omitempty"`
	Tenant         string    `json:"tenant,omitempty"`
	Start          time.Time `json:"start"`
	DurationMS     float64   `json:"duration_ms"`
	TTFRMS         float64   `json:"ttfr_ms,omitempty"`
	Results        int       `json:"results"`
	Err            string    `json:"error,omitempty"`
	Degraded       bool      `json:"degraded,omitempty"`
	BudgetExceeded bool      `json:"budget_exceeded,omitempty"`
	KeepReason     string    `json:"keep_reason"`
	Requests       int       `json:"requests"`
	URL            string    `json:"url"`
}

// TracesHandler serves the tail-sampled trace store. Mount it on both
// "/debug/traces" and "/debug/traces/" so per-trace paths resolve.
func TracesHandler(s *TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := strings.Trim(strings.TrimPrefix(req.URL.Path, "/debug/traces"), "/")
		if id == "" {
			serveTraceList(w, s)
			return
		}
		rec := s.Get(id)
		if rec == nil {
			http.Error(w, "trace not kept (tail sampling drops healthy fast queries)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "waterfall" {
			width := 60
			if n, err := strconv.Atoi(req.URL.Query().Get("width")); err == nil && n > 0 {
				width = n
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, RenderTraceWaterfall(rec, width))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rec)
	})
}

func serveTraceList(w http.ResponseWriter, s *TraceStore) {
	var payload struct {
		Schema int                `json:"schema"`
		Seen   int64              `json:"seen"`
		Kept   int                `json:"kept"`
		Traces []traceSummaryJSON `json:"traces"`
	}
	payload.Schema = TraceSchemaVersion
	payload.Seen = s.Seen()
	payload.Traces = []traceSummaryJSON{}
	for _, r := range s.Kept() {
		payload.Traces = append(payload.Traces, traceSummaryJSON{
			TraceID:        r.TraceID,
			QueryID:        r.QueryID,
			Query:          r.Query,
			Tenant:         r.Tenant,
			Start:          r.Start,
			DurationMS:     r.DurationMS,
			TTFRMS:         r.TTFRMS,
			Results:        r.Results,
			Err:            r.Err,
			Degraded:       r.Degraded,
			BudgetExceeded: r.BudgetExceeded,
			KeepReason:     r.KeepReason,
			Requests:       len(r.Requests),
			URL:            "/debug/traces/" + r.TraceID,
		})
	}
	payload.Kept = len(payload.Traces)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

// RenderTraceWaterfall draws a kept trace as an ASCII waterfall — one bar
// per recorded dereference, '#'-filled for fetches on the first-result
// critical path — followed by the gating-chain charts.
func RenderTraceWaterfall(rec *TraceRecord, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s — %d requests, %.1fms", rec.TraceID, len(rec.Requests), rec.DurationMS)
	if rec.TTFRMS > 0 {
		fmt.Fprintf(&b, ", TTFR %.1fms", rec.TTFRMS)
	}
	fmt.Fprintf(&b, " (kept: %s)\n", rec.KeepReason)
	mark := map[string]bool{}
	for _, u := range rec.CriticalPath.FirstResultURLs() {
		mark[u] = true
	}
	b.WriteString(metrics.Chart(requests(rec.Requests, time.Time{}), mark, width))
	if rec.CriticalPath != nil {
		b.WriteString(rec.CriticalPath.Render(width))
	}
	return b.String()
}
