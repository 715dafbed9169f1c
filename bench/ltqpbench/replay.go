package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	rtmetrics "runtime/metrics"
	"time"

	"ltqp/internal/algebra"
	"ltqp/internal/core"
	"ltqp/internal/deref"
	"ltqp/internal/exec"
	"ltqp/internal/extract"
	"ltqp/internal/linkqueue"
	"ltqp/internal/metrics"
	"ltqp/internal/plan"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/results"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
	"ltqp/internal/turtle"
)

// The traced replay walks a query through the engine's layers one call at a
// time, on one goroutine, with a span around each call: the same parse,
// plan, pop, dereference, ingest, extract, push sequence core.traverse runs,
// then execution over the loaded store and serialization. It reaches the
// documents the live run reached (checked) and the oracle's answer
// (checked), so its layer times describe the work of a real query; what it
// leaves out — the engine's concurrency, its hand-offs, evaluating while the
// store still grows — is what core.unattributed_cpu_ms holds.
//
// Three pieces of work happen inside a call the harness cannot open: the
// HTTP fetch, the Turtle parse and the first interning inside Dereference,
// and the re-interning inside AddDocument. Each is repeated on its own as a
// calibration span and moved between layers (see span.Inside).

type replay struct {
	tr      *tracer
	queries int
	wrong   int
	// Counts no span carries.
	failedDocs, retries      int64
	linksAccepted            int64 // pushes of extracted links the queue had not seen
	dictTerms                int64
	firstRowNS, firstBatchNS int64
}

// dereferences is how many documents the replay asked for, found or not.
func (r *replay) dereferences() int64 { return totalsByName(r.tr.spans)["deref.dereference"].n }

// allocs reads the process's cumulative object allocations without stopping
// the world. Per-P caches make a single delta coarse; sums over a round are
// what is reported.
func allocs() int64 {
	rtmetrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// allocSample is reused: the replay is one goroutine.
var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

var errNotCached = errors.New("ltqpbench: warm key missing from the shared cache")

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// patterns collects the triple patterns of a plan.
func patterns(op algebra.Operator, out []rdf.Triple) []rdf.Triple {
	switch x := op.(type) {
	case algebra.Pattern:
		return append(out, x.Triple)
	case algebra.Join:
		return patterns(x.Right, patterns(x.Left, out))
	case algebra.LeftJoin:
		return patterns(x.Right, patterns(x.Left, out))
	case algebra.Union:
		return patterns(x.Right, patterns(x.Left, out))
	case algebra.Minus:
		return patterns(x.Right, patterns(x.Left, out))
	case algebra.Filter:
		return patterns(x.Input, out)
	case algebra.Extend:
		return patterns(x.Input, out)
	case algebra.Group:
		return patterns(x.Input, out)
	case algebra.Project:
		return patterns(x.Input, out)
	case algebra.Distinct:
		return patterns(x.Input, out)
	case algebra.Reduced:
		return patterns(x.Input, out)
	case algebra.OrderBy:
		return patterns(x.Input, out)
	case algebra.Slice:
		return patterns(x.Input, out)
	}
	return out
}

func plainGet(ctx context.Context, c *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", deref.AcceptHeader)
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// query replays q once. dict is the engine dictionary to ingest into: the
// warm engine's survives across queries, a fresh engine's does not.
func (r *replay) query(ctx context.Context, wd *world, q *query, dict *rdf.Dict) error {
	tr := r.tr
	tr.query++
	r.queries++
	root := tr.begin("replay.query")
	defer tr.end(root)

	id := tr.begin("sparql.parse")
	parsed, err := sparql.ParseQuery(q.Text)
	if err != nil {
		return err
	}
	seeds := parsed.MentionedIRIs()
	tr.end(id)

	id = tr.begin("algebra.translate")
	op, err := algebra.Translate(parsed)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("plan.optimize")
	op = plan.New(seeds).Optimize(op)
	tr.end(id)

	st := wd.central
	if wd.w.Mode != modeClosed {
		st = store.NewWithDict(dict)
		if err := r.traverse(ctx, wd, parsed, seeds, st, dict); err != nil {
			return err
		}
		st.Close()
		r.dictTerms += int64(dict.Size())
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var rows []rdf.Binding
	a0 := allocs()
	id = tr.begin("exec.eval")
	for b := range exec.Eval(ctx, op, exec.NewEnv(st)) {
		if len(rows) == 0 {
			r.firstRowNS += int64(time.Since(tr.epoch)) - tr.spans[id].Start
		}
		rows = append(rows, b)
	}
	sp := tr.end(id)
	sp.Count, sp.Allocs = int64(len(rows)), allocs()-a0

	// The same plan drained as ID batches, the form ROADMAP item 3 makes the
	// only one: what decoding into bindings adds is the difference.
	id = tr.begin("exec.eval_batch")
	batchRows := 0
	for b := range exec.EvalBatch(ctx, op, exec.NewEnv(st)) {
		if batchRows == 0 {
			r.firstBatchNS += int64(time.Since(tr.epoch)) - tr.spans[id].Start
		}
		batchRows += b.Len()
	}
	sp = tr.end(id)
	sp.Micro, sp.Count = true, int64(batchRows)

	pats := patterns(op, nil)
	id = tr.begin("store.match_now")
	for _, p := range pats {
		st.MatchNow(p)
	}
	sp = tr.end(id)
	sp.Micro, sp.Count = true, int64(len(pats))

	var cw countingWriter
	id = tr.begin("results.write_json")
	err = results.WriteJSON(&cw, parsed.ProjectedVars(), rows)
	sp = tr.end(id)
	sp.Count, sp.Bytes = int64(len(rows)), cw.n
	if err != nil {
		return err
	}

	var chk checker
	if !chk.ok(q, rows) || batchRows != len(rows) {
		r.wrong++
	}
	return nil
}

// traverse is core.traverse on one goroutine: FIFO queue, the default Solid
// extractors, lenient about documents that fail.
func (r *replay) traverse(ctx context.Context, wd *world, parsed *sparql.Query, seeds []string, st *store.Store, dict *rdf.Dict) error {
	tr := r.tr
	extractors := extract.DefaultSolidSet(core.ShapeOf(parsed))
	queue := linkqueue.NewFIFO()
	rec := metrics.NewRecorder()
	d := &deref.Dereferencer{
		Client:    wd.env.Client(),
		Recorder:  rec,
		UserAgent: "ltqp-go/1.0 (link-traversal SPARQL engine)",
		Dict:      dict,
	}
	if wd.cache != nil {
		d.Shared = wd.cache
	}
	// A fresh engine interns a document's terms for the first time while
	// parsing it; scratch stands in for that dictionary in the calibration.
	scratch := rdf.NewDict()

	id := tr.begin("linkqueue.push_seeds")
	for _, s := range seeds {
		queue.Push(linkqueue.Link{URL: s, Reason: "seed", Extractor: "seed"})
	}
	tr.end(id)

	for {
		id = tr.begin("linkqueue.pop")
		l, ok := queue.Pop()
		tr.end(id).Count = 1
		if !ok {
			break
		}

		id = tr.begin("deref.dereference")
		res, cat, err := d.DereferenceTracked(ctx, l.URL, l.Via, l.Reason)
		sp := tr.end(id)
		if err != nil {
			r.failedDocs++
			continue
		}
		sp.Count, sp.Bytes = int64(len(res.Triples)), res.Bytes

		if cat == resource.Serve {
			id = tr.begin("serve.cache_hit")
			_, _, err := wd.cache.Dereference(ctx, l.URL, l.URL,
				func(context.Context, deref.Validators) (*deref.Result, error) { return nil, errNotCached })
			tr.end(id).Inside = "deref.dereference"
			if err != nil {
				return err
			}
		} else {
			id = tr.begin("podserver.get")
			body, err := plainGet(ctx, wd.env.Client(), res.FinalURL)
			sp = tr.end(id)
			sp.Inside, sp.Bytes = "deref.dereference", int64(len(body))
			if err != nil {
				return err
			}
			a0 := allocs()
			id = tr.begin("turtle.parse")
			ts, err := turtle.Parse(body, turtle.Options{Base: res.FinalURL})
			sp = tr.end(id)
			sp.Inside, sp.Count, sp.Bytes, sp.Allocs = "deref.dereference", int64(len(ts)), int64(len(body)), allocs()-a0
			if err != nil {
				return err
			}
			id = tr.begin("rdf.intern_miss")
			for _, t := range ts {
				scratch.InternTriple(t)
			}
			sp = tr.end(id)
			sp.Inside, sp.Count = "deref.dereference", int64(3*len(ts))
		}

		id = tr.begin("rdf.intern_hit")
		for _, t := range res.Triples {
			dict.InternTriple(t)
		}
		sp = tr.end(id)
		sp.Inside, sp.Count = "store.add_document", int64(3*len(res.Triples))

		a0 := allocs()
		id = tr.begin("store.add_document")
		st.AddDocument(res.FinalURL, res.Triples)
		sp = tr.end(id)
		sp.Count, sp.Allocs = int64(len(res.Triples)), allocs()-a0

		// core builds this graph only to hand it to the extractors.
		id = tr.begin("extract.graph")
		g := rdf.NewGraph()
		g.AddAll(res.Triples)
		tr.end(id)
		doc := extract.Document{IRI: res.FinalURL, Graph: g}
		var links []extract.Link
		id = tr.begin("extract.links")
		for _, ex := range extractors {
			links = append(links, ex.Extract(doc)...)
		}
		tr.end(id).Count = int64(len(links))

		pushed := int64(0)
		id = tr.begin("linkqueue.push")
		for _, link := range links {
			if link.URL == res.FinalURL || link.URL == l.URL {
				continue
			}
			pushed++
			if queue.Push(linkqueue.Link{URL: link.URL, Via: res.FinalURL, Reason: link.Reason,
				Extractor: link.Extractor, Depth: l.Depth + 1}) {
				r.linksAccepted++
			}
		}
		tr.end(id).Count = pushed
	}
	r.retries += int64(rec.Stats().Retries)
	return nil
}
