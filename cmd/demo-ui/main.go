// Command demo-ui serves the Web-based demonstration interface of the
// paper's §4 (Fig. 3): a page with a query dropdown preloaded with the 37
// default SolidBench queries, a free-form SPARQL editor, datasource (seed)
// selection, simulated Solid login, and a live result list that fills as
// the engine streams solutions — with the request waterfall (Figs. 4/5)
// shown next to it.
//
// The simulated pod environment runs in the same process; queries execute
// server-side and stream to the browser over server-sent events.
//
//	demo-ui --addr localhost:8095 --persons 16
package main

import (
	"context"
	"flag"
	"fmt"
	"html/template"
	"net/http"
	"os"
	"strconv"
	"time"

	"ltqp"
	"ltqp/internal/obs"
	"ltqp/internal/simenv"
	"ltqp/internal/solidbench"
)

var page = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>Link Traversal SPARQL over Solid</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2em; max-width: 72em; }
textarea { width: 100%; height: 14em; font-family: monospace; font-size: 13px; }
select, input[type=text] { width: 100%; padding: 4px; }
.row { display: flex; gap: 2em; } .col { flex: 1; }
#results li { font-family: monospace; font-size: 12px; margin: 2px 0; }
#status { color: #555; margin: 0.5em 0; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; font-size: 11px; }
button { padding: 6px 16px; font-size: 15px; }
</style></head><body>
<h1>Comunica-style Link Traversal — Go engine</h1>
<p>Using the <b>solid-default</b> configuration over {{.Pods}} simulated Solid pods
({{.Triples}} triples in {{.Files}} RDF files).</p>
<div class="row"><div class="col">
<label>Solid authentication:</label>
<select id="auth"><option value="">(anonymous)</option>
{{range .Agents}}<option value="{{.WebID}}">{{.Name}} &lt;{{.WebID}}&gt;</option>{{end}}
</select>
<label>Choose datasources (seed URLs, optional — defaults to IRIs in the query):</label>
<input type="text" id="seeds" placeholder="https://... (space separated)">
<label>Link extraction strategy:</label>
<select id="strategy">
<option value="solid">solid-default (profile + type index + LDP + cMatch)</option>
<option value="solid-no-ldp">type-index-guided (no blind container walks)</option>
<option value="ldp-only">LDP walk only</option>
<option value="cmatch">cMatch only</option>
</select>
<label>Type or pick a query:</label>
<select id="pick" onchange="pickQuery()"><option value="">(custom)</option>
{{range $i, $q := .Queries}}<option value="{{$i}}">[SolidBench] {{$q.Name}}</option>{{end}}
</select>
<textarea id="query"></textarea>
<p><button onclick="execute()">Execute query</button> <span id="status"></span></p>
<h3>Query results:</h3><ol id="results"></ol>
</div><div class="col">
<h3>Resource waterfall:</h3>
<pre id="waterfall">(run a query)</pre>
<h3>Traversal activity:</h3>
<pre id="traversal">(run a query)</pre>
</div></div>
<script>
const queries = {{.QueryTexts}};
function pickQuery() {
  const i = document.getElementById('pick').value;
  if (i !== '') document.getElementById('query').value = queries[i];
}
let source = null;
function execute() {
  if (source) source.close();
  const q = encodeURIComponent(document.getElementById('query').value);
  const seeds = encodeURIComponent(document.getElementById('seeds').value);
  const auth = encodeURIComponent(document.getElementById('auth').value);
  const strategy = encodeURIComponent(document.getElementById('strategy').value);
  document.getElementById('results').innerHTML = '';
  document.getElementById('traversal').textContent = '';
  document.getElementById('status').textContent = 'running…';
  const started = performance.now();
  let n = 0;
  source = new EventSource('/query?q='+q+'&seeds='+seeds+'&auth='+auth+'&strategy='+strategy);
  source.addEventListener('result', e => {
    n++;
    const li = document.createElement('li');
    li.textContent = e.data;
    document.getElementById('results').appendChild(li);
    document.getElementById('status').textContent =
      n + ' results in ' + ((performance.now()-started)/1000).toFixed(1) + 's';
  });
  source.addEventListener('waterfall', e => {
    document.getElementById('waterfall').textContent = JSON.parse(e.data);
  });
  source.addEventListener('traversal', e => {
    const pre = document.getElementById('traversal');
    const lines = pre.textContent === '' ? [] : pre.textContent.split('\n');
    lines.push(e.data);
    while (lines.length > 200) lines.shift();
    pre.textContent = lines.join('\n');
  });
  source.addEventListener('done', e => {
    document.getElementById('status').textContent =
      n + ' results in ' + ((performance.now()-started)/1000).toFixed(1) + 's — done';
    source.close();
  });
  source.addEventListener('error', e => {
    if (e.data) document.getElementById('status').textContent = 'error: ' + e.data;
    source.close();
  });
}
pickQuery();
</script></body></html>`))

type agentInfo struct {
	Name  string
	WebID string
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:8095", "listen address")
		persons = flag.Int("persons", 16, "pods in the simulated environment")
		seed    = flag.Int64("seed", 42, "generator seed")
		latency = flag.Duration("latency", 2*time.Millisecond, "simulated pod latency")
	)
	flag.Parse()

	cfg := solidbench.DefaultConfig()
	cfg.Persons = *persons
	cfg.Seed = *seed
	env := simenv.New(cfg)
	defer env.Close()
	env.PodServer.Latency = *latency
	stats := env.Stats()
	catalog := env.Dataset.Catalog()

	var agents []agentInfo
	for i, p := range env.Dataset.Persons {
		agents = append(agents, agentInfo{
			Name:  p.FirstName + " " + p.LastName,
			WebID: env.Dataset.WebID(i),
		})
	}
	texts := make([]string, len(catalog))
	for i, q := range catalog {
		texts[i] = q.Text
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		err := page.Execute(w, map[string]interface{}{
			"Pods": stats.Pods, "Triples": stats.Triples, "Files": stats.Files,
			"Queries": catalog, "QueryTexts": texts, "Agents": agents,
		})
		if err != nil {
			http.Error(w, err.Error(), 500)
		}
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		serveQuery(w, r, env)
	})

	fmt.Fprintf(os.Stderr, "demo UI on http://%s (simulated pods at %s)\n", *addr, env.Server.URL)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "demo-ui:", err)
		os.Exit(1)
	}
}

// serveQuery runs one query and streams results as server-sent events,
// interleaved with live traversal activity from the engine event bus. The
// stream sends periodic `: keepalive` comments so proxies keep the
// connection open, and stops promptly when the browser disconnects.
func serveQuery(w http.ResponseWriter, r *http.Request, env *simenv.Env) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", 500)
		return
	}
	emit := func(event, data string) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}

	bus := ltqp.NewEventBus()
	cfg := ltqp.Config{Client: env.Client(), Lenient: true, Events: bus}
	if webid := r.URL.Query().Get("auth"); webid != "" {
		cfg.Auth = &ltqp.Credentials{WebID: webid, Token: "sig:" + webid}
	}
	switch r.URL.Query().Get("strategy") {
	case "solid-no-ldp":
		cfg.Strategy = ltqp.StrategySolidNoLDP
	case "ldp-only":
		cfg.Strategy = ltqp.StrategyLDPOnly
	case "cmatch":
		cfg.Strategy = ltqp.StrategyCMatch
	}
	engine := ltqp.New(cfg)

	var seeds []string
	for _, s := range splitFields(r.URL.Query().Get("seeds")) {
		seeds = append(seeds, s)
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Minute)
	defer cancel()
	res, err := engine.QueryWithSeeds(ctx, r.URL.Query().Get("q"), seeds)
	if err != nil {
		emit("error", err.Error())
		return
	}

	// Follow this query's engine events so the browser can show traversal
	// activity (dereferences, queued links, retries) next to the results.
	sub := bus.SubscribeQuery(res.ID(), 1024)
	defer sub.Close()

	keepalive := time.NewTicker(obs.DefaultKeepAlive)
	defer keepalive.Stop()

	results := res.Results
	for results != nil {
		select {
		case <-r.Context().Done():
			// Browser went away: stop streaming immediately; cancelling
			// ctx aborts the traversal behind us.
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case ev := <-sub.C:
			if line := traversalLine(ev); line != "" {
				emit("traversal", line)
			}
		case b, ok := <-results:
			if !ok {
				results = nil
				continue
			}
			emit("result", ltqp.BindingJSON(b))
		}
	}
	// The engine emits query_finished before closing the result channel, so
	// the tail of the event stream is already buffered: drain it.
	sub.Close()
	for _, ev := range sub.Drain() {
		if line := traversalLine(ev); line != "" {
			emit("traversal", line)
		}
	}

	emit("waterfall", strconv.Quote(res.Metrics().Waterfall(50)))
	if err := res.Err(); err != nil {
		emit("error", err.Error())
		return
	}
	emit("done", "ok")
}

// traversalLine renders one engine event as a compact line for the UI's
// traversal pane; events that would only add noise return "".
func traversalLine(ev ltqp.Event) string {
	switch ev.Kind {
	case obs.EventDocumentDereferenced:
		how := fmt.Sprintf("attempt %d", ev.Attempt)
		if ev.Cached {
			how = "cache"
		}
		if ev.Err != "" {
			return fmt.Sprintf("deref FAIL %s (%s): %s", ev.URL, how, ev.Err)
		}
		return fmt.Sprintf("deref %s [%d, %s] %d triples in %.1fms",
			ev.URL, ev.Status, how, ev.Triples, float64(ev.DurationUS)/1000)
	case obs.EventLinkQueued:
		return fmt.Sprintf("queue %s (%s, depth %d)", ev.URL, ev.Extractor, ev.Depth)
	case obs.EventRetryScheduled:
		return fmt.Sprintf("retry #%d %s in %.0fms: %s",
			ev.Attempt, ev.URL, float64(ev.DelayUS)/1000, ev.Err)
	case obs.EventQueryFinished:
		return fmt.Sprintf("finished: %d results in %.1fms", ev.Rows, float64(ev.DurationUS)/1000)
	}
	return ""
}

// splitFields splits on whitespace and commas.
func splitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == ',' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
