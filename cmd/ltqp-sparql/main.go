// Command ltqp-sparql executes a SPARQL query over Solid pods using link
// traversal, reproducing the paper's command-line interface (Fig. 2):
//
//	ltqp-sparql [flags] [seed ...] 'SPARQL query'
//
// Each result is printed as a JSON object as it is produced, while
// traversal is still running. Examples:
//
//	ltqp-sparql --lenient \
//	  https://host/pods/0000.../profile/card \
//	  'PREFIX snvoc: <...> SELECT ?forumId ?forumTitle WHERE { ... }'
//
//	ltqp-sparql --lenient --waterfall 'SELECT ... { <seed-iri> ... }'
//
// The query may also be read from a file with --query-file, or from stdin
// when the query argument is "-".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ltqp"
	"ltqp/internal/obs"
	"ltqp/internal/results"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ltqp-sparql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lenient    = fs.Bool("lenient", true, "tolerate failing or unparseable documents")
		strategy   = fs.String("strategy", "solid", "link extraction strategy: solid, solid-no-ldp, ldp-only, cmatch, call")
		idp        = fs.String("idp", "", "identity provider hint (informational; use --webid/--token to authenticate)")
		webid      = fs.String("webid", "", "WebID to query on behalf of")
		token      = fs.String("token", "", "bearer token for the WebID (defaults to the simulated IdP signature)")
		timeout    = fs.Duration("timeout", 5*time.Minute, "overall query timeout")
		limitDocs  = fs.Int("max-documents", 0, "cap on dereferenced documents (0 = unlimited)")
		waterfall  = fs.Bool("waterfall", false, "print the HTTP resource waterfall after the query")
		stats      = fs.Bool("stats", false, "print traversal statistics after the query")
		plan       = fs.Bool("plan", false, "print the optimized logical plan before executing")
		explainOut = fs.String("explain", "", "write the explain report (traversal topology + result provenance) as JSON to this file (\"-\" for stderr)")
		explainDot = fs.String("explain-dot", "", "write the traversal topology as a Graphviz digraph to this file (\"-\" for stderr)")
		provenance = fs.Bool("provenance", false, "annotate each ndjson result with a \"_sources\" list of its source documents")
		queryFile  = fs.String("query-file", "", "read the query from this file")
		format     = fs.String("format", "ndjson", "result format: ndjson (streaming, as in the paper), json, csv, tsv")
		maxDepth   = fs.Int("max-depth", 0, "cap traversal depth in hops from the seeds (0 = unbounded)")
		sharedMB   = fs.Int64("shared-cache", 0, "enable a shared revalidating document cache with this byte budget in MiB (singleflight dedup included)")
		retries    = fs.Int("max-retries", 3, "retries per document on transient failures (429/5xx, transport errors); 0 disables")
		retryBase  = fs.Duration("retry-base", 100*time.Millisecond, "initial retry backoff (doubles per retry, with deterministic jitter)")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-attempt HTTP timeout (0 = none)")
		retrySeed  = fs.Int64("retry-seed", 0, "seed for deterministic backoff jitter (reproducible schedules)")
		traceOut   = fs.String("trace", "", "write the query's span tree as JSON to this file (\"-\" for stderr)")
		journalOut = fs.String("journal", "", "write the engine event journal (JSONL, one event per line) to this file; replay with benchreport --replay-journal")
		logFormat  = fs.String("log", "", "enable structured logging to stderr: text or json")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		memBudget  = fs.Int64("mem-budget-per-query", 0, "ledger-accounted memory the query may hold in bytes; crossing it aborts with the per-layer breakdown (0 = unlimited)")

		queuePolicy   = fs.String("queue-policy", "", "link queue discipline: fifo (default) or guided (query-relevance scoring with per-origin fairness)")
		maxDocsOrigin = fs.Int("max-docs-per-origin", 0, "cap dereferenced documents per origin (0 = unbounded)")
		maxBytesOrig  = fs.Int64("max-bytes-per-origin", 0, "cap body bytes read per origin (0 = unbounded)")
		maxInflight   = fs.Int("max-inflight-per-origin", 0, "cap concurrent dereferences per origin (0 = global limit only)")
		maxLinksDoc   = fs.Int("max-links-per-doc", 0, "cap links one document may add to the queue — link-bomb containment (0 = unbounded)")
		maxQueued     = fs.Int("max-queued-links", 0, "cap total distinct links one traversal accepts (0 = unbounded)")
		allowlist     = fs.String("traversal-allowlist", "", "comma-separated URL prefixes traversal may follow; seeds are always in scope (empty = unrestricted)")
		scopeSeeds    = fs.Bool("scope-to-seeds", false, "restrict traversal to the origins of the seed URLs")
		maxDocBytes   = fs.Int64("max-doc-bytes", 0, "cap one response body's size in bytes (0 = 64 MiB default)")
		bodyTimeout   = fs.Duration("body-timeout", 0, "abort a response body slower than this in total — slow-loris cutoff (0 = per-attempt timeout only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()

	var query string
	switch {
	case *queryFile != "":
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fmt.Fprintln(stderr, "ltqp-sparql:", err)
			return 1
		}
		query = string(data)
	case len(rest) > 0:
		query = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if query == "-" {
			data, err := io.ReadAll(os.Stdin)
			if err != nil {
				fmt.Fprintln(stderr, "ltqp-sparql:", err)
				return 1
			}
			query = string(data)
		}
	default:
		fmt.Fprintln(stderr, "usage: ltqp-sparql [flags] [seed ...] 'SPARQL query'")
		fs.PrintDefaults()
		return 2
	}
	seeds := rest

	policy, perr := ltqp.ParseQueuePolicy(*queuePolicy)
	if perr != nil {
		fmt.Fprintln(stderr, "ltqp-sparql:", perr)
		return 2
	}

	cfg := ltqp.Config{
		Lenient:      *lenient,
		MaxDocuments: *limitDocs,
		MaxDepth:     *maxDepth,
		QueuePolicy:  policy,
		Trace:        *traceOut != "",
		Explain:      *explainOut != "" || *explainDot != "" || *provenance,
		MemBudget:    *memBudget,
		Limits: ltqp.TraversalLimits{
			MaxDocsPerOrigin:     *maxDocsOrigin,
			MaxBytesPerOrigin:    *maxBytesOrig,
			MaxInFlightPerOrigin: *maxInflight,
			MaxLinksPerDoc:       *maxLinksDoc,
			MaxQueuedLinks:       *maxQueued,
			ScopeToSeeds:         *scopeSeeds,
			MaxDocBytes:          *maxDocBytes,
			BodyTimeout:          *bodyTimeout,
		},
	}
	if *allowlist != "" {
		for _, p := range strings.Split(*allowlist, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Limits.Allowlist = append(cfg.Limits.Allowlist, p)
			}
		}
	}
	if *sharedMB > 0 {
		cfg.SharedCache = ltqp.NewSharedCache(ltqp.SharedCacheOptions{MaxBytes: *sharedMB << 20})
	}
	if *retries > 0 {
		cfg.Retry = &ltqp.RetryPolicy{
			MaxAttempts:    *retries + 1,
			BaseDelay:      *retryBase,
			AttemptTimeout: *reqTimeout,
			Seed:           *retrySeed,
		}
		if *reqTimeout == 0 {
			cfg.Retry.AttemptTimeout = -1
		}
	}
	switch *strategy {
	case "solid":
		cfg.Strategy = ltqp.StrategySolid
	case "solid-no-ldp":
		cfg.Strategy = ltqp.StrategySolidNoLDP
	case "ldp-only":
		cfg.Strategy = ltqp.StrategyLDPOnly
	case "cmatch":
		cfg.Strategy = ltqp.StrategyCMatch
	case "call":
		cfg.Strategy = ltqp.StrategyCAll
	default:
		fmt.Fprintf(stderr, "ltqp-sparql: unknown strategy %q\n", *strategy)
		return 2
	}
	if *webid != "" {
		tok := *token
		if tok == "" {
			tok = "sig:" + *webid
		}
		cfg.Auth = &ltqp.Credentials{WebID: *webid, Token: tok}
		if *idp != "" {
			fmt.Fprintf(stderr, "logged in via %s as %s\n", *idp, *webid)
		}
	}

	// The event bus feeds both opt-in consumers; without either flag no
	// bus is attached and the engine skips event construction entirely.
	if *journalOut != "" || *logFormat != "" {
		cfg.Events = ltqp.NewEventBus()
	}
	if *logFormat != "" {
		logger, lerr := obs.NewLogger(stderr, *logFormat, *logLevel)
		if lerr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql:", lerr)
			return 2
		}
		eventLog := obs.LogEvents(logger, cfg.Events)
		defer eventLog.Close()
	}
	if *journalOut != "" {
		f, ferr := os.Create(*journalOut)
		if ferr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: journal:", ferr)
			return 1
		}
		journal, jerr := ltqp.NewJournal(f, cfg.Events)
		if jerr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: journal:", jerr)
			return 1
		}
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				fmt.Fprintln(stderr, "ltqp-sparql: journal:", cerr)
			}
			f.Close()
		}()
	}

	engine := ltqp.New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	res, err := engine.QueryWithSeeds(ctx, query, seeds)
	if err != nil {
		fmt.Fprintln(stderr, "ltqp-sparql:", err)
		return 1
	}
	if *plan {
		fmt.Fprintln(stderr, "plan:", res.PlanString())
	}

	n := 0
	switch *format {
	case "ndjson":
		// Stream each result as it is produced (paper Fig. 2).
		for b := range res.Results {
			if *provenance {
				fmt.Fprintln(stdout, ltqp.BindingJSONWithSources(b))
			} else {
				fmt.Fprintln(stdout, ltqp.BindingJSON(b))
			}
			n++
		}
	case "json", "csv", "tsv":
		var all []ltqp.Binding
		for b := range res.Results {
			all = append(all, b)
		}
		n = len(all)
		var werr error
		switch *format {
		case "json":
			werr = results.WriteJSON(stdout, res.Vars, all)
		case "csv":
			werr = results.WriteCSV(stdout, res.Vars, all)
		case "tsv":
			werr = results.WriteTSV(stdout, res.Vars, all)
		}
		if werr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql:", werr)
			return 1
		}
	default:
		fmt.Fprintf(stderr, "ltqp-sparql: unknown format %q\n", *format)
		return 2
	}
	if err := res.Err(); err != nil {
		fmt.Fprintln(stderr, "ltqp-sparql:", err)
		return 1
	}
	elapsed := time.Since(start)

	if *waterfall {
		fmt.Fprint(stderr, "\n"+res.Metrics().Waterfall(60))
	}
	if *stats {
		s := res.Stats()
		ttfr := "-"
		if d, ok := res.Metrics().TimeToFirstResult(); ok {
			ttfr = d.Round(time.Millisecond).String()
		}
		fmt.Fprintf(stderr, "\n%d results in %s (first result after %s)\n",
			n, elapsed.Round(time.Millisecond), ttfr)
		fmt.Fprintf(stderr, "%d HTTP requests (%d failed), %d triples from %d documents, max depth %d\n",
			s.Requests, s.Failed, s.TotalTriples, s.Requests-s.Failed, s.MaxDepth)
		if sc, enabled := engine.SharedCacheStats(); enabled {
			fmt.Fprintf(stderr, "shared cache: %.0f%% hit ratio (%d hits / %d misses), %d negative hits, %d entries / %d bytes held, %d revalidations (%d answered 304), %d singleflight dedups\n",
				sc.HitRatio()*100, sc.Hits, sc.Misses, sc.NegativeHits, sc.Documents, sc.Bytes,
				sc.Revalidations, sc.NotModified, sc.Dedups)
		}
		if deg := res.Degradation(); deg.Degraded() {
			fmt.Fprintf(stderr, "degraded: %d retries, %d documents abandoned (results may be partial)\n",
				deg.Retries, len(deg.FailedDocuments))
			for _, trip := range deg.LimitTrips {
				fmt.Fprintf(stderr, "  limit tripped: %s\n", trip)
			}
		}
		if snap := res.Resources(); snap != nil {
			line := fmt.Sprintf("memory: peak %d bytes (%s)", snap.Peak, snap.BreakdownString())
			if snap.Budget > 0 {
				line += fmt.Sprintf(", budget %d bytes", snap.Budget)
				if snap.Exceeded {
					line += " EXCEEDED"
				}
			}
			fmt.Fprintln(stderr, line)
		}
		fmt.Fprintf(stderr, "seeds: %s\n", strings.Join(res.Seeds, " "))
	}
	if *traceOut != "" {
		data, jerr := res.Trace().JSON()
		if jerr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: trace:", jerr)
			return 1
		}
		if werr := writeOut(*traceOut, data, stderr); werr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: trace:", werr)
			return 1
		}
	}
	if *explainOut != "" {
		data, jerr := res.Explain().JSON()
		if jerr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: explain:", jerr)
			return 1
		}
		if werr := writeOut(*explainOut, data, stderr); werr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: explain:", werr)
			return 1
		}
	}
	if *explainDot != "" {
		if werr := writeOut(*explainDot, []byte(strings.TrimRight(res.TopologyDOT(), "\n")), stderr); werr != nil {
			fmt.Fprintln(stderr, "ltqp-sparql: explain-dot:", werr)
			return 1
		}
	}
	return 0
}

// writeOut writes data (plus a trailing newline) to path, or to stderr when
// path is "-".
func writeOut(path string, data []byte, stderr io.Writer) error {
	if path == "-" {
		fmt.Fprintln(stderr, string(data))
		return nil
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
