package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"ltqp/internal/obs"
)

// renderTraces renders critical-path latency attribution from either a
// trace export (the JSON served by /debug/traces/<id>, or written by the
// trace-smoke harness) or an engine event journal (JSONL from
// `ltqp-sparql --journal`). Journals hold every query of a run, so the
// topN slowest are reported, each with the dereference chains that gated
// its first result and its total traversal time.
func renderTraces(path string, topN, width int, out io.Writer) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	// A journal is JSONL with a versioned header line; a trace export is a
	// single JSON document. Try the journal reader first — it rejects
	// non-journals at the header — then fall back to the export shapes.
	if summary, err := obs.ReadJournal(bytes.NewReader(data)); err == nil {
		return renderJournalTraces(summary, topN, width, out)
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("not a journal and not a trace export: %w", err)
	}
	if rec.TraceID == "" {
		return fmt.Errorf("trace export has no trace_id (expected /debug/traces/<id> JSON)")
	}
	fmt.Fprint(out, obs.RenderTraceWaterfall(&rec, width))
	return nil
}

// renderJournalTraces walks each journaled query's dereference DAG (the
// replay's Parent links) and prints the topN slowest queries' critical
// paths.
func renderJournalTraces(summary *obs.JournalSummary, topN, width int, out io.Writer) error {
	queries := append([]*obs.QueryReplay(nil), summary.Queries...)
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Duration > queries[j].Duration })
	if topN > 0 && len(queries) > topN {
		fmt.Fprintf(out, "%d queries in journal; showing the %d slowest\n\n", len(queries), topN)
		queries = queries[:topN]
	}
	for _, q := range queries {
		cp := obs.QueryCritPath(q.Recorder, q.Topology)
		fmt.Fprintf(out, "== query %d — %d results in %.1fms, %d dereferences ==\n%s\n",
			q.ID, len(q.ResultTimes()), float64(q.Duration.Microseconds())/1000, q.Stats().Requests, q.Query)
		if cp == nil {
			fmt.Fprintln(out, "(no dereferences recorded)")
			continue
		}
		fmt.Fprint(out, cp.Render(width))
		fmt.Fprintln(out)
	}
	return nil
}
