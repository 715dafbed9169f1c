package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ltqp/internal/resource"
)

// MetricsHandler serves the registry in Prometheus text exposition format.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// HealthHandler serves a trivial liveness probe.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"time\":%q}\n", time.Now().UTC().Format(time.RFC3339Nano))
	})
}

// querySummaryJSON is the /debug/queries wire format for one query.
type querySummaryJSON struct {
	ID int64 `json:"id"`
	// Tenant is the quota bucket (API key / client address) the query was
	// admitted under; empty for untracked callers (library use, CLI).
	Tenant     string    `json:"tenant,omitempty"`
	Query      string    `json:"query"`
	Seeds      []string  `json:"seeds,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Results    int       `json:"results"`
	Done       bool      `json:"done"`
	Err        string    `json:"error,omitempty"`
	// TraceID is the query's W3C trace ID; TraceURL links to its kept record
	// under /debug/traces (404 when tail sampling dropped it).
	TraceID  string    `json:"trace_id,omitempty"`
	TraceURL string    `json:"trace_url,omitempty"`
	Trace    *SpanJSON `json:"trace,omitempty"`
	// Topology summarizes the traversal graph when explain recording was on.
	Topology *topoSummaryJSON `json:"topology,omitempty"`
	// Contributions tallies pattern matches per source document when
	// provenance was on.
	Contributions []DocMatches `json:"contributions,omitempty"`
	// MemPeakBytes / MemTopLayer surface the resource ledger: the query's
	// memory high-water mark and its dominant cost driver (deref, store,
	// exec or serve). Zero/empty when the query ran without accounting.
	MemPeakBytes int64  `json:"mem_peak_bytes,omitempty"`
	MemTopLayer  string `json:"mem_top_layer,omitempty"`
}

// topoSummaryJSON is the compact traversal-topology summary embedded in
// query listings; the full graph is served by /debug/topology?id=N.
type topoSummaryJSON struct {
	Documents int `json:"documents"`
	Links     int `json:"links"`
	Results   int `json:"results"`
}

func summarize(r *QueryRecord, withTrace bool) querySummaryJSON {
	out := querySummaryJSON{
		ID:            r.ID,
		Tenant:        r.Tenant(),
		Query:         r.Query,
		Seeds:         r.Seeds,
		Start:         r.Start,
		DurationMS:    float64(r.Duration().Microseconds()) / 1000,
		Results:       r.Results(),
		Done:          r.Done(),
		Err:           r.Err(),
		Contributions: r.Contributions(),
	}
	if topo := r.Topology(); topo != nil {
		s := topo.summary()
		out.Topology = &s
	}
	if lg := r.Ledger(); lg != nil {
		out.MemPeakBytes = lg.Peak()
		if snap := lg.Snapshot(); snap != nil {
			out.MemTopLayer = snap.TopLayer
		}
	}
	if r.Trace != nil {
		if tid := r.Trace.ID(); tid != "" {
			out.TraceID = tid
			out.TraceURL = "/debug/traces/" + tid
		}
	}
	if withTrace && r.Trace != nil && r.Trace.Root() != nil {
		root := r.Trace.Root()
		sj := root.toJSON(root.Start())
		out.Trace = &sj
	}
	return out
}

// QueriesHandler serves in-flight and recent query summaries as JSON.
// Span trees are included per query; ?trace=0 omits them, and
// ?id=N&format=tree renders one query's span tree as indented text.
func QueriesHandler(t *QueryTracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "tree" {
			serveTree(w, req, t)
			return
		}
		withTrace := req.URL.Query().Get("trace") != "0"
		var payload struct {
			Schema   int                `json:"schema"`
			InFlight []querySummaryJSON `json:"in_flight"`
			Recent   []querySummaryJSON `json:"recent"`
		}
		payload.Schema = TraceSchemaVersion
		payload.InFlight = []querySummaryJSON{}
		payload.Recent = []querySummaryJSON{}
		for _, r := range t.InFlight() {
			payload.InFlight = append(payload.InFlight, summarize(r, withTrace))
		}
		for _, r := range t.Recent() {
			payload.Recent = append(payload.Recent, summarize(r, withTrace))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
}

func serveTree(w http.ResponseWriter, req *http.Request, t *QueryTracker) {
	var id int64
	fmt.Sscanf(req.URL.Query().Get("id"), "%d", &id)
	for _, r := range append(t.InFlight(), t.Recent()...) {
		if r.ID == id {
			if r.Trace == nil {
				http.Error(w, "query has no trace", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, r.Trace.Tree())
			return
		}
	}
	http.Error(w, "unknown query id", http.StatusNotFound)
}

// TopologyHandler serves recorded traversal topologies. Without parameters
// it lists queries that carry a topology (id + summary); ?id=N returns the
// query's full topology JSON, and ?id=N&format=dot renders it as a Graphviz
// digraph (Content-Type text/vnd.graphviz).
func TopologyHandler(t *QueryTracker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		idParam := req.URL.Query().Get("id")
		if idParam == "" {
			type entry struct {
				ID       int64           `json:"id"`
				Query    string          `json:"query"`
				Done     bool            `json:"done"`
				Topology topoSummaryJSON `json:"topology"`
			}
			entries := []entry{}
			for _, r := range append(t.InFlight(), t.Recent()...) {
				topo := r.Topology()
				if topo == nil {
					continue
				}
				entries = append(entries, entry{
					ID:       r.ID,
					Query:    r.Query,
					Done:     r.Done(),
					Topology: topo.summary(),
				})
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(map[string]interface{}{"schema": TraceSchemaVersion, "queries": entries})
			return
		}
		var id int64
		fmt.Sscanf(idParam, "%d", &id)
		for _, r := range append(t.InFlight(), t.Recent()...) {
			if r.ID != id {
				continue
			}
			topo := r.Topology()
			if topo == nil {
				http.Error(w, "query has no recorded topology", http.StatusNotFound)
				return
			}
			if req.URL.Query().Get("format") == "dot" {
				w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
				fmt.Fprint(w, topo.DOT())
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(map[string]interface{}{"schema": TraceSchemaVersion, "id": id, "topology": topo.Snapshot()})
			return
		}
		http.Error(w, "unknown query id", http.StatusNotFound)
	})
}

// ResourcesHandler serves the resource-ledger view: in-flight queries
// ranked by current ledger spend (largest first, full per-layer breakdown
// each), recently finished queries' peaks, and the per-tenant rollups.
func ResourcesHandler(t *QueryTracker, tenants *resource.TenantLedger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		type entry struct {
			Query  string             `json:"query"`
			Done   bool               `json:"done"`
			Ledger *resource.Snapshot `json:"ledger"`
		}
		var payload struct {
			Schema   int                    `json:"schema"`
			InFlight []entry                `json:"in_flight"`
			Recent   []entry                `json:"recent"`
			Tenants  []resource.TenantUsage `json:"tenants"`
		}
		payload.Schema = TraceSchemaVersion
		payload.InFlight = []entry{}
		payload.Recent = []entry{}
		for _, r := range t.InFlight() {
			if snap := r.Ledger().Snapshot(); snap != nil {
				payload.InFlight = append(payload.InFlight, entry{Query: r.Query, Ledger: snap})
			}
		}
		// Rank in-flight queries by live spend, largest first.
		sort.SliceStable(payload.InFlight, func(i, j int) bool {
			return payload.InFlight[i].Ledger.Current > payload.InFlight[j].Ledger.Current
		})
		for _, r := range t.Recent() {
			if snap := r.Ledger().Snapshot(); snap != nil {
				payload.Recent = append(payload.Recent, entry{Query: r.Query, Done: r.Done(), Ledger: snap})
			}
		}
		payload.Tenants = tenants.Snapshot()
		if payload.Tenants == nil {
			payload.Tenants = []resource.TenantUsage{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
}

// Register mounts the observer's exposition endpoints on mux:
// /metrics (Prometheus text), /healthz (ok/degraded), /debug/queries,
// /debug/topology, /debug/resources (per-query memory ledgers), and
// /debug/events (live SSE event feed).
func (o *Observer) Register(mux *http.ServeMux) {
	if o == nil || mux == nil {
		return
	}
	mux.Handle("/metrics", MetricsHandler(o.Registry))
	if o.Health != nil {
		mux.Handle("/healthz", HealthCheckHandler(o.Health))
	} else {
		mux.Handle("/healthz", HealthHandler())
	}
	mux.Handle("/debug/queries", QueriesHandler(o.Tracker))
	mux.Handle("/debug/topology", TopologyHandler(o.Tracker))
	mux.Handle("/debug/resources", ResourcesHandler(o.Tracker, o.Resources))
	if o.Traces != nil {
		mux.Handle("/debug/traces", TracesHandler(o.Traces))
		mux.Handle("/debug/traces/", TracesHandler(o.Traces))
	}
	if o.Stream != nil {
		mux.Handle("/debug/events", o.Stream)
	}
}
