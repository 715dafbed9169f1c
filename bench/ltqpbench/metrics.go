package main

import (
	"sort"
	"time"

	"ltqp/internal/serve"
)

// metricDef names one metric of the benchmark. BENCHMARK.json repeats these
// tables; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the baseline a gated metric may worsen by
}

// endToEnd is what a user of the engine sees, the same on every workload.
// Every one is gated by its bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_ms_p50", "ms", "lower", 0.20},
	{"qps", "1/s", "higher", 0.20},
	{"cpu_ms_per_query", "ms", "lower", 0.20},
	{"allocs_per_query", "count", "lower", 0.03},
	{"alloc_kb_per_query", "KiB", "lower", 0.03},
}

// engineLayers are the packages under internal/ a query passes through.
var engineLayers = []string{"sparql", "algebra", "plan", "podserver", "deref", "turtle", "rdf",
	"store", "extract", "linkqueue", "exec", "results", "serve"}

// perLayer is reported by trace runs and carries no bound.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
		{Name: "algebra.translate_us", Unit: "us", Better: "lower"},
		{Name: "plan.optimize_us", Unit: "us", Better: "lower"},
		{Name: "podserver.get_us", Unit: "us", Better: "lower"},
		{Name: "deref.dereference_us", Unit: "us", Better: "lower"},
		{Name: "deref.self_us", Unit: "us", Better: "lower"},
		{Name: "deref.failed", Unit: "count", Better: "lower"},
		{Name: "deref.retries", Unit: "count", Better: "lower"},
		{Name: "turtle.parse_us_per_doc", Unit: "us", Better: "lower"},
		{Name: "turtle.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "turtle.triples_per_doc", Unit: "count", Better: "lower"},
		{Name: "turtle.allocs_per_triple", Unit: "count", Better: "lower"},
		{Name: "rdf.intern_miss_ns", Unit: "ns", Better: "lower"},
		{Name: "rdf.intern_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "rdf.dict_terms", Unit: "count", Better: "lower"},
		{Name: "store.add_document_us", Unit: "us", Better: "lower"},
		{Name: "store.add_triples_per_s", Unit: "1/s", Better: "higher"},
		{Name: "store.allocs_per_triple", Unit: "count", Better: "lower"},
		{Name: "store.match_now_us", Unit: "us", Better: "lower"},
		{Name: "extract.links_us_per_doc", Unit: "us", Better: "lower"},
		{Name: "extract.links_per_doc", Unit: "count", Better: "lower"},
		{Name: "extract.new_link_ratio", Unit: "ratio", Better: "higher"},
		{Name: "linkqueue.push_pop_ns", Unit: "ns", Better: "lower"},
		{Name: "linkqueue.dup_ratio", Unit: "ratio", Better: "lower"},
		{Name: "linkqueue.peak_len", Unit: "count", Better: "lower"},
		{Name: "core.docs_per_query", Unit: "count", Better: "lower"},
		{Name: "core.docs_before_first_result", Unit: "count", Better: "lower"},
		{Name: "core.docs_before_last_result", Unit: "count", Better: "lower"},
		{Name: "core.max_parallel", Unit: "count", Better: "higher"},
		{Name: "core.cpu_ms_per_query", Unit: "ms", Better: "lower"},
		{Name: "core.unattributed_cpu_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.eval_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.first_row_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.first_batch_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.rows_out", Unit: "count", Better: "lower"},
		{Name: "exec.allocs_per_row", Unit: "count", Better: "lower"},
		{Name: "results.write_json_us", Unit: "us", Better: "lower"},
		{Name: "results.bytes_per_row", Unit: "B", Better: "lower"},
		{Name: "results.rows_per_query", Unit: "count", Better: "higher"},
		{Name: "serve.cache_hit_us", Unit: "us", Better: "lower"},
		{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serve.evictions", Unit: "count", Better: "lower"},
		{Name: "serve.dedups", Unit: "count", Better: "higher"},
		{Name: "serve.duplicate_inflight", Unit: "count", Better: "lower"},
		// End-to-end, but not steady enough to gate: time to first result
		// is a race on multipod_latency, tails follow the neighbours.
		{Name: "ungated.ttfr_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "ungated.ttfr_ms_tail", Unit: "ms", Better: "lower"},
		{Name: "ungated.query_ms_tail", Unit: "ms", Better: "lower"},
		{Name: "ungated.tail_percentile", Unit: "%", Better: "higher"},
	}
	for _, l := range engineLayers {
		defs = append(defs, metricDef{Name: l + ".busy_ms_per_query", Unit: "ms", Better: "lower"})
	}
	return defs
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes.
	Samples int `json:"samples,omitempty"`
	// Bound is set on gated metrics.
	Bound float64 `json:"bound,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// shapeRow is one line of the per-query-shape detail table.
type shapeRow struct {
	Name       string  `json:"name"`
	Samples    int     `json:"samples"`
	TTFRMSP50  float64 `json:"ttfr_ms_p50"`
	QueryMSP50 float64 `json:"query_ms_p50"`
	Docs       int     `json:"docs"`
	Rows       int     `json:"rows"`
}

// shapeMedians groups timed samples by query shape. The p50 of a mix is the
// mean over shapes of each shape's median: the median of the pooled sample
// sits in the gap between the streaming shapes (first row after 5 ms) and
// the blocking ones (after 17 ms), where it jumps from run to run.
func shapeMedians(queries []*query, samples []sample) (shapes []shapeRow, ttfrP50, queryP50 float64) {
	byShape := make([][]sample, len(queries))
	for _, s := range samples {
		byShape[s.shape] = append(byShape[s.shape], s)
	}
	for i, ss := range byShape {
		row := shapeRow{Name: queries[i].Name, Samples: len(ss)}
		var ttfr, total []float64
		for _, s := range ss {
			ttfr, total = append(ttfr, ms(s.ttfr)), append(total, ms(s.total))
			row.Docs, row.Rows = s.docs, s.rows
		}
		row.TTFRMSP50, row.QueryMSP50 = median(ttfr), median(total)
		ttfrP50 += row.TTFRMSP50 / float64(len(byShape))
		queryP50 += row.QueryMSP50 / float64(len(byShape))
		shapes = append(shapes, row)
	}
	return shapes, ttfrP50, queryP50
}

// endToEndValues turns a measured window into the end-to-end metrics.
// setupS is the median set-up time and setups how many were timed.
func endToEndValues(wd *world, q quiet, win window, setupS float64, setups int) (map[string]value, []shapeRow) {
	shapes, _, queryP50 := shapeMedians(wd.queries, q.samples)
	timed := len(q.samples)
	n := float64(timed)
	vals := map[string]value{
		"setup_s":            {Value: setupS, Samples: setups},
		"query_ms_p50":       {Value: queryP50, Samples: timed},
		"qps":                {Value: ratio(n, q.wall.Seconds()), Samples: timed},
		"cpu_ms_per_query":   {Value: ratio(ms(q.cpu), n), Samples: timed},
		"allocs_per_query":   {Value: ratio(float64(win.mallocs), float64(win.attempted)), Samples: win.attempted},
		"alloc_kb_per_query": {Value: ratio(float64(win.allocated)/1024, float64(win.attempted)), Samples: win.attempted},
	}
	for _, d := range endToEnd {
		v := vals[d.Name]
		v.Unit, v.Bound = d.Unit, d.Bound
		vals[d.Name] = v
	}
	return vals, shapes
}

// layerRow is one line of a workload's layer budget.
type layerRow struct {
	Layer          string  `json:"layer"`
	BusyMSPerQuery float64 `json:"busy_ms_per_query"`
	// Share is the layer's part of the replayed busy time.
	Share float64 `json:"share"`
}

// perLayerValues turns a live window and a replay into the per-layer
// metrics and the layer budget.
func perLayerValues(wd *world, win window, cache serve.CacheStats, r *replay) (map[string]value, []layerRow) {
	tot := totalsByName(r.tr.spans)
	busy := layerBusy(r.tr.spans)
	queries := float64(r.queries)
	// Most metrics are one span name's totals, one divided by another.
	val := func(num, den int64, scale float64, samples int64) value {
		return value{Value: ratio(float64(num), float64(den)) * scale, Samples: int(samples)}
	}
	perQuery := func(total int64, scale float64) value {
		return value{Value: float64(total) / queries * scale, Samples: r.queries}
	}
	var (
		get, deref     = tot["podserver.get"], tot["deref.dereference"]
		parse, add     = tot["turtle.parse"], tot["store.add_document"]
		miss, hit      = tot["rdf.intern_miss"], tot["rdf.intern_hit"]
		graph, links   = tot["extract.graph"], tot["extract.links"]
		push, pop      = tot["linkqueue.push"], tot["linkqueue.pop"]
		eval, batch    = tot["exec.eval"], tot["exec.eval_batch"]
		match, write   = tot["store.match_now"], tot["results.write_json"]
		cacheHit       = tot["serve.cache_hit"]
		sparqlParse    = tot["sparql.parse"]
		translate, opt = tot["algebra.translate"], tot["plan.optimize"]
	)

	correct, rows := 0, 0
	for _, s := range win.samples {
		if s.ok {
			correct++
			rows += s.rows
		}
	}
	live := int64(win.live.queries)
	quiet := win.quiet()
	cpuPerQuery := ratio(ms(quiet.cpu), float64(len(quiet.samples)))
	// Tails are over the pooled sample: they are about the slowest queries of
	// the mix, whichever shape they are. Both are taken at the percentile
	// the sample supports, 0 when it supports none.
	var ttfr, total []float64
	for _, s := range quiet.samples {
		ttfr, total = append(ttfr, ms(s.ttfr)), append(total, ms(s.total))
	}
	sort.Float64s(ttfr)
	sort.Float64s(total)
	ttfrTail, tailP := tail(ttfr, wd.w.Tails...)
	totalTail, _ := tail(total, wd.w.Tails...)
	_, ttfrP50, _ := shapeMedians(wd.queries, quiet.samples)

	var busyTotal int64
	for _, l := range engineLayers {
		busyTotal += busy[l]
	}
	unattributed := cpuPerQuery - float64(busyTotal)/1e6/queries

	vals := map[string]value{
		"sparql.parse_us":          val(sparqlParse.ns, sparqlParse.n, 1e-3, sparqlParse.n),
		"algebra.translate_us":     val(translate.ns, translate.n, 1e-3, translate.n),
		"plan.optimize_us":         val(opt.ns, opt.n, 1e-3, opt.n),
		"podserver.get_us":         val(get.ns, get.n, 1e-3, get.n),
		"deref.dereference_us":     val(deref.ns, deref.n, 1e-3, deref.n),
		"deref.self_us":            val(busy["deref"], deref.n, 1e-3, deref.n),
		"deref.failed":             perQuery(r.failedDocs, 1),
		"deref.retries":            perQuery(r.retries, 1),
		"turtle.parse_us_per_doc":  val(parse.ns, parse.n, 1e-3, parse.n),
		"turtle.parse_mb_per_s":    val(parse.bytes, parse.ns, 1e9/1e6, parse.n),
		"turtle.triples_per_doc":   val(parse.count, parse.n, 1, parse.n),
		"turtle.allocs_per_triple": val(parse.allocs, parse.count, 1, parse.n),
		"rdf.intern_miss_ns":       val(miss.ns, miss.count, 1, miss.count),
		"rdf.intern_hit_ns":        val(hit.ns, hit.count, 1, hit.count),
		"rdf.dict_terms":           perQuery(r.dictTerms, 1),
		"store.add_document_us":    val(add.ns, add.n, 1e-3, add.n),
		"store.add_triples_per_s":  val(add.count, add.ns, 1e9, add.n),
		"store.allocs_per_triple":  val(add.allocs, add.count, 1, add.n),
		"store.match_now_us":       val(match.ns, match.count, 1e-3, match.count),
		"extract.links_us_per_doc": val(graph.ns+links.ns, links.n, 1e-3, links.n),
		"extract.links_per_doc":    val(links.count, links.n, 1, links.n),
		"extract.new_link_ratio":   val(r.linksAccepted, links.count, 1, links.count),
		"linkqueue.push_pop_ns":    val(push.ns+pop.ns, push.count+pop.count, 1, push.count+pop.count),
		"linkqueue.dup_ratio":      val(push.count-r.linksAccepted, push.count, 1, push.count),
		"linkqueue.peak_len":       val(int64(win.live.peakQueue), live, 1, live),

		// Counted by the replay, which the live run is held equal to: with
		// several clients the live count loses the fetches they share.
		"core.docs_per_query":           perQuery(deref.n, 1),
		"core.docs_before_first_result": val(int64(win.live.docsBeforeFirst), live, 1, live),
		"core.docs_before_last_result":  val(int64(win.live.docsBeforeLast), live, 1, live),
		"core.max_parallel":             val(int64(win.live.maxParallel), live, 1, live),
		"core.cpu_ms_per_query":         {Value: cpuPerQuery, Samples: len(quiet.samples)},
		"core.unattributed_cpu_ms":      {Value: unattributed, Samples: r.queries},

		"exec.eval_ms":           val(eval.ns, eval.n, 1e-6, eval.n),
		"exec.first_row_ms":      perQuery(r.firstRowNS, 1e-6),
		"exec.first_batch_ms":    perQuery(r.firstBatchNS, 1e-6),
		"exec.rows_out":          val(batch.count, batch.n, 1, batch.n),
		"exec.allocs_per_row":    val(eval.allocs, eval.count, 1, eval.count),
		"results.write_json_us":  val(write.ns, write.n, 1e-3, write.n),
		"results.bytes_per_row":  val(write.bytes, write.count, 1, write.count),
		"results.rows_per_query": val(int64(rows), int64(correct), 1, int64(correct)),

		"serve.cache_hit_us":       val(cacheHit.ns, cacheHit.n, 1e-3, cacheHit.n),
		"serve.hit_ratio":          {Value: cache.HitRatio(), Samples: int(cache.Hits + cache.Misses)},
		"serve.evictions":          {Value: float64(cache.Evictions)},
		"serve.dedups":             {Value: float64(cache.Dedups)},
		"serve.duplicate_inflight": {Value: float64(cache.DuplicateInflight)},

		"ungated.ttfr_ms_p50":     {Value: ttfrP50, Samples: len(ttfr)},
		"ungated.ttfr_ms_tail":    {Value: ttfrTail, Samples: len(ttfr)},
		"ungated.query_ms_tail":   {Value: totalTail, Samples: len(total)},
		"ungated.tail_percentile": {Value: tailP, Samples: len(total)},
	}
	var budget []layerRow
	for _, l := range engineLayers {
		vals[l+".busy_ms_per_query"] = perQuery(busy[l], 1e-6)
		budget = append(budget, layerRow{Layer: l, BusyMSPerQuery: float64(busy[l]) / 1e6 / queries,
			Share: ratio(float64(busy[l]), float64(busyTotal))})
	}
	for _, d := range perLayer {
		v := vals[d.Name]
		v.Unit = d.Unit
		vals[d.Name] = v
	}
	budget = append(budget,
		layerRow{Layer: "(replay harness)", BusyMSPerQuery: float64(busy["replay"]) / 1e6 / queries},
		layerRow{Layer: "(unattributed: core loop, hand-offs, live evaluation)", BusyMSPerQuery: unattributed})
	return vals, budget
}
