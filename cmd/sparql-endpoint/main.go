// Command sparql-endpoint exposes the link-traversal engine through the
// SPARQL 1.1 Protocol, so any SPARQL client can query Decentralized
// Knowledge Graphs without knowing about traversal: a query arrives over
// HTTP, the engine traverses the relevant Solid pods live, and the results
// return in the negotiated standard format (SPARQL Results JSON, CSV, TSV;
// Turtle or N-Triples for CONSTRUCT/DESCRIBE).
//
//	sparql-endpoint --addr localhost:8096
//	curl 'http://localhost:8096/sparql?query=SELECT...' \
//	     -H 'Accept: application/sparql-results+json'
//
// With --simulate the endpoint also hosts an in-process simulated Solid
// environment to traverse (handy for demos); otherwise it dereferences
// whatever the queries point at.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ltqp"
	"ltqp/internal/obs"
	"ltqp/internal/results"
	"ltqp/internal/serve"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
	"ltqp/internal/sparql"
	"ltqp/internal/turtle"
)

// version identifies the build in ltqp_build_info (override with
// -ldflags "-X main.version=v1.2.3").
var version = "dev"

func main() {
	var (
		addr      = flag.String("addr", "localhost:8096", "listen address")
		debugAddr = flag.String("debug-addr", "", "extra listener for net/http/pprof + observability endpoints (e.g. localhost:6060)")
		simulate  = flag.Bool("simulate", false, "host a simulated Solid environment in-process")
		persons   = flag.Int("persons", 16, "pods for --simulate")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-query timeout")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight queries")
		logFormat = flag.String("log", "", "enable structured logging to stderr: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		degraded  = flag.Float64("degraded-threshold", obs.DefaultDegradedThreshold, "recent deref failure ratio above which /healthz reports degraded")

		sharedBytes = flag.Int64("shared-cache-bytes", serve.DefaultMaxBytes, "shared document cache byte budget (0 = the 64 MiB default)")
		sharedTTL   = flag.Duration("shared-cache-ttl", serve.DefaultTTL, "shared-cache freshness lifetime before conditional revalidation")
		resultCache = flag.Int("result-cache", serve.DefaultResultCacheEntries, "result cache entries for repeated SELECT queries (0 disables)")
		maxInflight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "queries executing at once across all tenants (0 disables admission control)")
		queueDepth  = flag.Int("queue-depth", serve.DefaultQueueDepth, "queries allowed to wait for an execution slot; beyond it requests get 429")
		tenantQuota = flag.Int("tenant-quota", 4, "in-flight queries per tenant (X-API-Key or client IP; 0 = no per-tenant limit)")
		retryAfter  = flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to 429 rejections")
		maxDocs     = flag.Int("max-docs-per-query", 0, "documents one query may dereference (0 = unbounded)")
		maxRows     = flag.Int("max-result-rows", 0, "rows one SELECT may return; excess is truncated (0 = unbounded)")
		memBudget   = flag.Int64("mem-budget-per-query", 0, "ledger-accounted memory one query may hold in bytes; over-budget queries are cancelled with 507 (0 = unlimited)")

		queuePolicy   = flag.String("queue-policy", "", "link queue discipline: fifo (default) or guided")
		maxDocsOrigin = flag.Int("max-docs-per-origin", 0, "documents one query may dereference per origin (0 = unbounded)")
		maxBytesOrig  = flag.Int64("max-bytes-per-origin", 0, "body bytes one query may read per origin (0 = unbounded)")
		maxInflOrigin = flag.Int("max-inflight-per-origin", 0, "concurrent dereferences per origin within one query (0 = global limit only)")
		maxLinksDoc   = flag.Int("max-links-per-doc", 0, "links one document may add to a query's traversal queue (0 = unbounded)")
		maxQueued     = flag.Int("max-queued-links", 0, "total distinct links one query's traversal accepts (0 = unbounded)")
		allowlist     = flag.String("traversal-allowlist", "", "comma-separated URL prefixes traversal may follow; seeds always in scope (empty = unrestricted)")
		scopeSeeds    = flag.Bool("scope-to-seeds", false, "restrict each query's traversal to the origins of its seed URLs")
		maxDocBytes   = flag.Int64("max-doc-bytes", 0, "response body size cap in bytes (0 = 64 MiB default)")
		bodyTimeout   = flag.Duration("body-timeout", 0, "abort response bodies slower than this in total (0 = per-attempt timeout only)")
	)
	flag.Parse()

	policy, perr := ltqp.ParseQueuePolicy(*queuePolicy)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "sparql-endpoint:", perr)
		os.Exit(2)
	}

	observer := ltqp.NewObserver()
	observer.Health.Threshold = *degraded
	obs.StampBuildInfo(observer.Registry, version, time.Now())
	if *logFormat != "" {
		logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparql-endpoint:", err)
			os.Exit(2)
		}
		eventLog := obs.LogEvents(logger, observer.Events)
		defer eventLog.Close()
	}
	// Explain makes every query record its traversal topology and result
	// provenance, served live on /debug/topology and in /debug/queries.
	cfg := ltqp.Config{Lenient: true, Obs: observer,
		Explain: true, MaxDocuments: *maxDocs, MemBudget: *memBudget,
		QueuePolicy: policy,
		Limits: ltqp.TraversalLimits{
			MaxDocsPerOrigin:     *maxDocsOrigin,
			MaxBytesPerOrigin:    *maxBytesOrig,
			MaxInFlightPerOrigin: *maxInflOrigin,
			MaxLinksPerDoc:       *maxLinksDoc,
			MaxQueuedLinks:       *maxQueued,
			ScopeToSeeds:         *scopeSeeds,
			MaxDocBytes:          *maxDocBytes,
			BodyTimeout:          *bodyTimeout,
		}}
	if *allowlist != "" {
		for _, p := range strings.Split(*allowlist, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Limits.Allowlist = append(cfg.Limits.Allowlist, p)
			}
		}
	}
	var env *simenv.Env
	if *simulate {
		scfg := solidbench.DefaultConfig()
		scfg.Persons = *persons
		env = simenv.New(scfg)
		cfg.Client = env.Client()
		q := env.Dataset.Discover(1, 1)
		fmt.Fprintf(os.Stderr, "simulated pods at %s\nexample query name: %s\n", env.Server.URL, q.Name)
	}

	// Serving subsystem: shared document cache (the endpoint's one document
	// cache, always on), admission control, result cache — the last two
	// individually optional via their flags.
	var serving Serving
	serving.Shared = serve.NewSharedCache(serve.SharedCacheOptions{
		MaxBytes: *sharedBytes, TTL: *sharedTTL,
		Obs: observer.Metrics, Events: observer.Events,
	})
	cfg.SharedCache = serving.Shared
	if *maxInflight > 0 {
		qd := *queueDepth
		if qd <= 0 {
			qd = serve.QueueDepthNone
		}
		serving.Admission = serve.NewAdmission(serve.AdmissionOptions{
			MaxInFlight: *maxInflight, QueueDepth: qd, TenantQuota: *tenantQuota,
			RetryAfter: *retryAfter, Obs: observer.Metrics, Events: observer.Events,
		})
	}
	if *resultCache > 0 {
		serving.ResultCache = serve.NewResultCache(*resultCache, observer.Metrics)
	}
	serving.MaxResultRows = *maxRows
	observer.Health.Serving = servingHealth(observer, serving)

	h := NewServingHandler(ltqp.New(cfg), *timeout, serving)
	mux := buildMux(h, observer)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Long-lived /debug/events feeds would otherwise hold Shutdown open for
	// the full drain budget; close them as soon as draining starts.
	srv.RegisterOnShutdown(observer.Stream.Shutdown)

	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		observer.Register(dmux)
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/pprof/\n", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sparql-endpoint: debug:", err)
			}
		}()
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight queries within the --drain budget, then close the
	// simulated environment.
	stop, stopCancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopCancel()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "SPARQL endpoint on http://%s/sparql (metrics on /metrics, health on /healthz, queries on /debug/queries, traversal graphs on /debug/topology, live events on /debug/events)\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	exit := 0
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "sparql-endpoint:", err)
			exit = 1
		}
	case <-stop.Done():
		fmt.Fprintln(os.Stderr, "sparql-endpoint: shutting down, draining in-flight queries...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if serving.Admission != nil {
			// Reject queued and new queries immediately (429 draining)
			// while in-flight ones finish under the same budget.
			go serving.Admission.Drain(shutdownCtx)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "sparql-endpoint: shutdown:", err)
			exit = 1
		}
		if debugSrv != nil {
			debugSrv.Shutdown(shutdownCtx)
		}
		cancel()
	}
	if env != nil {
		env.Close()
	}
	os.Exit(exit)
}

// buildMux assembles the endpoint's HTTP surface: the SPARQL protocol on
// /sparql, POST /admin/invalidate (bump the shared-cache epoch), plus the
// observer's endpoints (/metrics, /healthz, /debug/queries, /debug/topology,
// /debug/events).
func buildMux(h *Handler, observer *ltqp.Observer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/sparql", h)
	if h.serving.Shared != nil {
		mux.HandleFunc("/admin/invalidate", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			epoch := h.serving.Shared.Invalidate()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"epoch\":%d}\n", epoch)
		})
	}
	observer.Register(mux)
	return mux
}

// servingHealth builds the /healthz serving section from the subsystem's
// live counters.
func servingHealth(observer *ltqp.Observer, s Serving) func() *obs.ServingHealth {
	if s.Shared == nil && s.Admission == nil {
		return nil
	}
	return func() *obs.ServingHealth {
		st := s.Shared.Stats() // nil-safe: zero stats without a shared cache
		h := &obs.ServingHealth{
			CacheHitRatio:      st.HitRatio(),
			CacheHits:          st.Hits,
			CacheMisses:        st.Misses,
			CacheNegativeHits:  st.NegativeHits,
			CacheBytes:         st.Bytes,
			CacheDocuments:     st.Documents,
			Revalidations:      st.Revalidations,
			NotModified:        st.NotModified,
			SingleflightDedups: st.Dedups,
			CacheEpoch:         st.Epoch,
		}
		if s.Admission != nil {
			h.Admitted = s.Admission.Admitted()
			h.Rejected = s.Admission.Rejected()
			h.InFlight = s.Admission.InFlight()
			h.Queued = s.Admission.Queued()
		}
		return h
	}
}

// Serving bundles the optional multi-tenant serving pieces of a Handler.
type Serving struct {
	// Shared is the process-wide document cache (epoch source for the
	// result cache and target of /admin/invalidate). May be nil.
	Shared *serve.SharedCache
	// Admission gates queries; nil admits everything unconditionally.
	Admission *serve.Admission
	// ResultCache memoizes SELECT results; nil disables.
	ResultCache *serve.ResultCache
	// MaxResultRows truncates SELECT responses (0 = unbounded).
	MaxResultRows int
}

// Handler implements the SPARQL 1.1 Protocol over the traversal engine.
type Handler struct {
	engine  *ltqp.Engine
	timeout time.Duration
	serving Serving
}

// NewHandler builds a protocol handler around an engine, with no admission
// control or caching layers.
func NewHandler(engine *ltqp.Engine, timeout time.Duration) *Handler {
	return &Handler{engine: engine, timeout: timeout}
}

// NewServingHandler builds a protocol handler with the multi-tenant serving
// pieces attached.
func NewServingHandler(engine *ltqp.Engine, timeout time.Duration, s Serving) *Handler {
	return &Handler{engine: engine, timeout: timeout, serving: s}
}

// cachedSelect is one memoized SELECT result (rows are immutable once
// stored; every response re-renders them in the negotiated format).
type cachedSelect struct {
	vars []string
	rows []ltqp.Binding
}

// ServeHTTP handles SPARQL Protocol query operations (GET with ?query=,
// POST with form or application/sparql-query body). With admission control
// attached, overload answers 429 Too Many Requests plus a Retry-After hint.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	query, err := extractQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant := serve.TenantFromRequest(r)
	ctx, cancel := context.WithTimeout(obs.ContextWithTenant(r.Context(), tenant), h.timeout)
	defer cancel()

	parsed, err := sparql.ParseQuery(query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if h.serving.Admission != nil {
		release, err := h.serving.Admission.Admit(ctx, tenant)
		if err != nil {
			var rej *serve.RejectionError
			if errors.As(err, &rej) {
				w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(rej.RetryAfter.Seconds()))))
				http.Error(w, "too many requests: "+rej.Reason, http.StatusTooManyRequests)
				return
			}
			// The client gave up (or timed out) while queued.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer release()
	}

	accept := r.Header.Get("Accept")
	switch parsed.Form {
	case sparql.FormAsk:
		ok, err := h.engine.Ask(ctx, query)
		if err != nil {
			http.Error(w, err.Error(), queryErrorStatus(err))
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		results.WriteBooleanJSON(w, ok)

	case sparql.FormConstruct, sparql.FormDescribe:
		var triples []ltqp.Triple
		if parsed.Form == sparql.FormConstruct {
			triples, err = h.engine.Construct(ctx, query)
		} else {
			triples, err = h.engine.Describe(ctx, query)
		}
		if err != nil {
			http.Error(w, err.Error(), queryErrorStatus(err))
			return
		}
		if strings.Contains(accept, "application/n-triples") {
			w.Header().Set("Content-Type", "application/n-triples")
			io.WriteString(w, turtle.WriteNTriples(triples))
			return
		}
		w.Header().Set("Content-Type", "text/turtle")
		io.WriteString(w, turtle.Write(triples, turtle.WriteOptions{Prefixes: ltqp.CommonPrefixes()}))

	default: // SELECT
		// The result cache is keyed on the normalized query, the seed set,
		// and the shared cache's invalidation epoch — so POST
		// /admin/invalidate expires cached results and cached documents in
		// one stroke.
		var key string
		if h.serving.ResultCache != nil {
			key = serve.ResultKey(query, nil, h.serving.Shared.Epoch())
			if v, ok := h.serving.ResultCache.Get(key); ok {
				cached := v.(*cachedSelect)
				w.Header().Set("X-Result-Cache", "hit")
				writeSelect(w, accept, cached.vars, cached.rows)
				return
			}
		}
		res, err := h.engine.Query(ctx, query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// ?trace=1 exposes the query's trace id so the caller can follow up
		// on /debug/traces/<id> (404 there means tail sampling dropped it).
		if r.URL.Query().Get("trace") == "1" {
			if tid := res.TraceID(); tid != "" {
				w.Header().Set("X-Trace-Id", tid)
			}
		}
		var all []ltqp.Binding
		truncated := false
		for b := range res.Results {
			if h.serving.MaxResultRows > 0 && len(all) >= h.serving.MaxResultRows {
				truncated = true
				res.Close()
				break
			}
			all = append(all, b)
		}
		if err := res.Err(); err != nil {
			http.Error(w, err.Error(), queryErrorStatus(err))
			return
		}
		if key != "" && !truncated && ctx.Err() == nil {
			h.serving.ResultCache.Put(key, &cachedSelect{vars: res.Vars, rows: all})
		}
		if truncated {
			w.Header().Set("X-Results-Truncated", strconv.Itoa(h.serving.MaxResultRows))
		}
		writeSelect(w, accept, res.Vars, all)
	}
}

// writeSelect renders SELECT rows in the negotiated format.
// queryErrorStatus maps an execution failure to its HTTP status: a query
// cancelled for crossing --mem-budget-per-query answers 507 Insufficient
// Storage (the error text carries the per-layer ledger breakdown);
// everything else stays a 500.
func queryErrorStatus(err error) int {
	var be *ltqp.BudgetExceededError
	if errors.As(err, &be) {
		return http.StatusInsufficientStorage
	}
	return http.StatusInternalServerError
}

func writeSelect(w http.ResponseWriter, accept string, vars []string, rows []ltqp.Binding) {
	switch {
	case strings.Contains(accept, "text/csv"):
		w.Header().Set("Content-Type", "text/csv")
		results.WriteCSV(w, vars, rows)
	case strings.Contains(accept, "text/tab-separated-values"):
		w.Header().Set("Content-Type", "text/tab-separated-values")
		results.WriteTSV(w, vars, rows)
	default:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		results.WriteJSON(w, vars, rows)
	}
}

// extractQuery pulls the query string out of a protocol request.
func extractQuery(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query parameter")
		}
		return q, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				return "", err
			}
			return string(body), nil
		}
		if err := r.ParseForm(); err != nil {
			return "", err
		}
		q := r.PostForm.Get("query")
		if q == "" {
			return "", fmt.Errorf("missing query form field")
		}
		return q, nil
	default:
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
}
