// Package deref implements the dereferencer of the traversal engine: it
// fetches a document URL over HTTP with RDF content negotiation, parses the
// response into triples, and reports request metrics. Authentication is
// supported by attaching the querying agent's WebID as a bearer credential,
// which the simulated Solid pod servers verify against per-document access
// control lists — reproducing the paper's "execute queries on behalf of the
// logged-in user" behaviour with a simulated Solid-OIDC flow.
//
// Fetches on the open Web fail transiently; when a RetryPolicy is set, the
// dereferencer retries transient failures (transport errors, 429/5xx,
// stalled responses) with capped exponential backoff and honors Retry-After
// hints, while terminal failures (other 4xx, unparseable or oversized
// documents) surface immediately. Every attempt, a shared-cache answer
// included, is reported as one document_dereferenced event, so degraded
// networks stay observable.
package deref

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/extract"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
	"ltqp/internal/rdf"
	"ltqp/internal/resource"
	"ltqp/internal/turtle"
)

// AcceptHeader is the RDF content negotiation header sent with every
// dereference.
const AcceptHeader = "text/turtle;q=1.0, application/n-triples;q=0.9, */*;q=0.1"

// maxBodyBytes caps response bodies to guard against hostile documents. A
// body over the cap is rejected, never silently truncated. (A variable so
// tests can exercise the overflow path without 64 MiB bodies.)
var maxBodyBytes int64 = 64 << 20

// ErrBodyLimit marks a dereference rejected because the response body
// exceeded the byte cap — an oversized-document defense trip, detectable
// with errors.Is through the returned *Error.
var ErrBodyLimit = errors.New("deref: body exceeds size limit")

// ErrSlowBody marks a dereference aborted because the response body did not
// arrive in full within BodyTimeout — the slow-loris defense trip,
// detectable with errors.Is through the returned *Error.
var ErrSlowBody = errors.New("deref: body transfer too slow")

// Credentials identifies the agent on whose behalf the engine queries.
type Credentials struct {
	// WebID is the agent's WebID IRI.
	WebID string
	// Token is the bearer token proving control of the WebID. The
	// simulated identity provider issues Token == WebID signatures; real
	// deployments would carry a DPoP-bound access token here.
	Token string
}

// Result is a successful dereference. The shared cache holds and hands out
// the *Result itself, so one is shared, read-only, by every query that hits
// it. The document is held once, as its Segment.
type Result struct {
	// URL is the requested document URL; FinalURL the post-redirect URL.
	URL      string
	FinalURL string
	// Triples are the statements as terms, set only on the copy a
	// Dereferencer with a Recorder returns, never on a cached Result: the
	// benchmark's replay reads them, and they go with it (ROADMAP item 1b).
	Triples []rdf.Triple
	// Segment is the document version's parsed form, built once by the
	// fetch that produced this Result; nil on a 304 answer.
	Segment *Segment
	Status  int
	Bytes   int64
	// Validators are the HTTP cache validators the server attached to a
	// 200 response; a shared document cache stores them to revalidate the
	// entry with a conditional request later.
	Validators Validators
	// NotModified is set when a conditional fetch was answered with
	// 304 Not Modified: the caller's cached copy is still current and
	// Segment is nil.
	NotModified bool
}

// DecodedTriples returns the document's statements as terms: Triples when
// set, else a decode of the segment into a new slice.
func (r *Result) DecodedTriples() []rdf.Triple {
	if r.Triples != nil || r.Segment == nil {
		return r.Triples
	}
	return r.Segment.Dict.DecodeTriples(r.Segment.Triples)
}

// Segment is a fetched document, parsed once per document version instead
// of once per query that reads it: the triples as dictionary IDs and the
// document's link table. It is immutable and lives on the Result, so it is
// cached, partitioned by requesting identity and evicted exactly as the
// Result is.
type Segment struct {
	// Dict is the dictionary Source and Triples are encoded against: the
	// fetching Dereferencer's, or a private one if it had none. IDs mean
	// nothing under another dictionary: a consumer whose store uses a
	// different one (engines sharing a cache) decodes them through Dict.
	Dict *rdf.Dict
	// Source is the ID of the document's final URL as an IRI term.
	Source rdf.TermID
	// Triples are the parsed statements, with relative IRIs resolved
	// against the final URL and blank nodes scoped to this document.
	Triples []rdf.IDTriple
	// Links is the document's link table, scanned from Triples; it holds
	// strings, not IDs, so it reads alike under any dictionary.
	Links *extract.LinkTable
}

// bodyPool recycles response-body buffers: a body is only needed until its
// segment is built, so a worker reads into the buffer it used last. Buffers
// over maxPooledBody are dropped, so one huge document pins nothing.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// readBody reads r to EOF into buf, reusing its capacity. hint, the
// response's Content-Length (negative: unknown), sizes the buffer up front
// but is never trusted: no more than limit+1 bytes are allocated or read on
// its word, and a longer body is still read in full. A result longer than
// limit means the body exceeds it.
func readBody(r io.Reader, buf []byte, hint, limit int64) ([]byte, error) {
	if hint < 0 {
		hint = 4 << 10
	}
	// One byte of slack: the read that fills the body also sees EOF.
	if need := min(hint, limit) + 1; int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF || int64(len(buf)) > limit {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*int64(cap(buf)), limit+1)), buf...)
		}
	}
}

// Validators are the HTTP cache validators of a document: the strong entity
// tag and Last-Modified date a server reported, replayed on revalidation as
// If-None-Match / If-Modified-Since.
type Validators struct {
	ETag         string
	LastModified string
}

// Zero reports whether no validator is present (a conditional request is
// impossible; revalidation degrades to a full refetch).
func (v Validators) Zero() bool { return v.ETag == "" && v.LastModified == "" }

// FetchFunc performs one dereference (with retries) on behalf of a shared
// cache, sending the given validators as a conditional request when present.
// It returns a NotModified result when the server answered 304.
type FetchFunc func(ctx context.Context, vals Validators) (*Result, error)

// SharedCache is a cross-engine shared document cache layered under the
// dereferencer (implemented by internal/serve). Lookup answers the key from a
// fresh entry and needs nothing to fetch with. Dereference does the same,
// and otherwise fetches: it revalidates stale entries with a conditional
// fetch and deduplicates concurrent fetches of the same key so N concurrent
// queries issue one upstream request. hit reports whether this caller was
// served without a network request of its own (fresh hit or deduplicated
// join of another caller's in-flight fetch). The cache also keeps that a
// document does not exist (a terminal 404/410): such a hit comes with the
// *Error the origin's answer produced, and no Result.
type SharedCache interface {
	Lookup(ctx context.Context, key, url string) (res *Result, hit bool, err error)
	Dereference(ctx context.Context, key, url string, fetch FetchFunc) (res *Result, hit bool, err error)
}

// Dereferencer fetches and parses RDF documents.
type Dereferencer struct {
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Auth, when non-nil, is attached to every request.
	Auth *Credentials
	// Recorder, when non-nil, also receives each attempt's row
	// (obs.RequestOf). Only callers without an emitter need it: the
	// engine's emitter folds attempts into the query's recorder, and leaves
	// this nil. It goes when the benchmark's replay traversal does (ROADMAP
	// item 1b).
	Recorder *metrics.Recorder
	// Retry, when non-nil, retries transient failures with backoff. Nil
	// means a single attempt with no per-attempt timeout.
	Retry *RetryPolicy
	// Events, when non-nil, receives one document_dereferenced event per
	// attempt — the owning query's record of the dereference, folded into
	// its recorder, metrics and topology — and a retry_scheduled event
	// whenever a transient failure is about to be retried after a backoff
	// delay.
	Events *obs.Emitter
	// UserAgent is sent as the User-Agent header.
	UserAgent string
	// Dict, when non-nil, is the engine term dictionary: parsed documents
	// are encoded against it, so a store over the same dictionary ingests a
	// document — fetched or cached — without interning anything. Without
	// one, each document is parsed into a private dictionary.
	Dict *rdf.Dict
	// Shared, when non-nil, layers a cross-engine shared document cache
	// under the dereferencer (see internal/serve): fresh entries are
	// served without touching the network, stale entries revalidate with
	// conditional requests, and concurrent dereferences of the same key
	// collapse into one upstream fetch (Fig. 4's "(disk cache)" rows).
	Shared SharedCache
	// MaxBodyBytes, when positive, overrides the 64 MiB default response
	// body cap: a larger body fails with an error wrapping ErrBodyLimit.
	MaxBodyBytes int64
	// BodyTimeout, when positive, bounds how long one response body may
	// take to arrive in full; a slower transfer (a slow-loris pod) is
	// aborted with an error wrapping ErrSlowBody. The timer starts once
	// response headers arrive.
	BodyTimeout time.Duration
	// Ledger, when non-nil, is charged for every successful dereference:
	// resource.Deref for documents read off the network (body bytes, a
	// proxy for the retained parse), resource.Serve for documents pinned
	// from a cache on this query's behalf. The traversal worker releases
	// the charge once the document is ingested and its links extracted.
	Ledger *resource.Ledger
}

// docCounter scopes blank node labels per parsed document version. It is
// process-wide, not per Dereferencer: engines build a Dereferencer per query
// and share cached segments across queries and dictionaries, so two
// documents parsed by different queries must never share a label prefix.
var docCounter atomic.Int64

// cacheKey is the identity-scoped shared-cache key: access-controlled
// documents must never leak across requesting identities.
func cacheKey(url string, auth *Credentials) string {
	if auth == nil {
		return url
	}
	return url + "\x00" + auth.WebID
}

// BodyLimit returns the effective response-body byte cap.
func (d *Dereferencer) BodyLimit() int64 {
	if d.MaxBodyBytes > 0 {
		return d.MaxBodyBytes
	}
	return maxBodyBytes
}

// Dereference fetches one document and parses it, retrying transient
// failures per the Retry policy. Failures return an error (a *Error for
// HTTP/transport/parse failures); each attempt is reported either way.
func (d *Dereferencer) Dereference(ctx context.Context, url, parent, reason string) (*Result, error) {
	res, _, err := d.DereferenceTracked(ctx, url, parent, reason)
	return res, err
}

// DereferenceTracked is Dereference plus ledger accounting: a successful
// dereference charges the attached resource ledger once for res.Bytes and
// returns the category charged — resource.Deref for documents read off the
// network, resource.Serve for documents pinned from the shared cache on this
// query's behalf. The caller must Release the same category
// and amount once the document has been ingested and its links extracted.
// The category is returned rather than stored on Result because Result
// pointers are shared across queries by the shared-cache singleflight.
func (d *Dereferencer) DereferenceTracked(ctx context.Context, url, parent, reason string) (*Result, resource.Category, error) {
	var res *Result
	var hit bool
	var err error
	if d.Shared == nil {
		res, err = d.fetchWithRetry(ctx, url, parent, reason, Validators{})
	} else {
		// The fetch closure is built only once the cache has no fresh entry.
		key := cacheKey(url, d.Auth)
		if res, hit, err = d.Shared.Lookup(ctx, key, url); !hit {
			res, hit, err = d.Shared.Dereference(ctx, key, url,
				func(fctx context.Context, vals Validators) (*Result, error) {
					return d.fetchWithRetry(fctx, url, parent, reason, vals)
				})
		}
		// A fetch reported its attempts itself; a hit, the cached absence of
		// a document included, is reported here so the query's record is the
		// same whether or not the cache answered.
		if hit {
			d.recordCacheHit(ctx, url, parent, reason, res, err)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	cat := resource.Deref
	if hit {
		cat = resource.Serve
	}
	// 304 revalidations carry no new payload and are never charged.
	if !res.NotModified {
		d.Ledger.Charge(cat, res.Bytes)
	}
	if d.Recorder != nil {
		// A copy with Triples decoded: the cached Result never holds them.
		r := *res
		r.Triples = res.DecodedTriples()
		res = &r
	}
	return res, cat, nil
}

// recordCacheHit reports a dereference served from the shared cache as one
// attempt, and in the span stream: the document res, or the failure a
// negative entry holds, as the fetch that found it reported it.
func (d *Dereferencer) recordCacheHit(ctx context.Context, url, parent, reason string, res *Result, failure error) {
	ev := obs.Event{Kind: obs.EventDocumentDereferenced, Time: time.Now(),
		URL: url, Via: parent, Reason: reason, Attempt: 1, Cached: true}
	_, sp := obs.StartSpan(ctx, "deref", obs.Str("url", url), obs.Bool("cached", true))
	defer sp.End()
	// Asserted, not errors.As: its target would escape, one allocation a hit.
	if gone, ok := failure.(*Error); ok {
		ev.Status, ev.Err = gone.Status, statusErr(gone.Status)
		sp.SetAttr(obs.Str("error", ev.Err))
	} else {
		ev.Status, ev.Bytes, ev.Triples = http.StatusOK, res.Bytes, len(res.Segment.Triples)
		sp.SetAttr(obs.Int("triples", ev.Triples))
	}
	d.report(ev)
}

// report is an attempt's one reporting call: its event, and the row of the
// compatibility Recorder when one is set.
func (d *Dereferencer) report(ev obs.Event) {
	d.Events.Emit(ev)
	if d.Recorder != nil {
		d.Recorder.Record(obs.RequestOf(ev))
	}
}

// statusErr is the waterfall's error for a response that is not a document.
func statusErr(status int) string { return "status " + strconv.Itoa(status) }

// fetchWithRetry performs the network dereference with the configured retry
// policy, sending vals as a conditional request when present.
func (d *Dereferencer) fetchWithRetry(ctx context.Context, url, parent, reason string, vals Validators) (*Result, error) {
	maxAttempts := d.Retry.maxAttempts()
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res, err := d.fetchOnce(ctx, url, parent, reason, attempt, vals)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if attempt == maxAttempts || !IsRetryable(err) || ctx.Err() != nil {
			break
		}
		delay := d.Retry.Backoff(url, attempt)
		var de *Error
		if errors.As(err, &de) && de.RetryAfter > 0 {
			if de.RetryAfter > d.Retry.maxRetryAfter() {
				// The server demands a longer pause than we are
				// willing to wait: give up on this document.
				break
			}
			delay = de.RetryAfter
		}
		if d.Events.Active() {
			d.Events.Emit(obs.Event{Kind: obs.EventRetryScheduled, URL: url,
				Attempt: attempt, DelayUS: delay.Microseconds(), Err: err.Error()})
		}
		if err := d.Retry.doSleep(ctx, delay); err != nil {
			break
		}
	}
	return nil, lastErr
}

// fetchOnce performs one fetch+parse attempt and reports it. When vals
// carries validators the request is conditional and a 304 answer yields a
// NotModified result instead of an error.
func (d *Dereferencer) fetchOnce(ctx context.Context, url, parent, reason string, attempt int, vals Validators) (*Result, error) {
	client := d.Client
	if client == nil {
		client = http.DefaultClient
	}
	start := time.Now()
	ev := obs.Event{Kind: obs.EventDocumentDereferenced, URL: url, Via: parent, Reason: reason, Attempt: attempt}
	_, span := obs.StartSpan(ctx, "deref", obs.Str("url", url), obs.Int("attempt", attempt))
	// Every return below reports the attempt as ev then holds it.
	defer func() {
		ev.Time = time.Now()
		ev.DurationUS = ev.Time.Sub(start).Microseconds()
		d.report(ev)
		if ev.ServerUS > 0 {
			span.SetAttr(obs.Int64("server_us", ev.ServerUS))
		}
		if ev.Err != "" {
			span.SetAttr(obs.Str("error", ev.Err))
		} else {
			span.SetAttr(obs.Int("status", ev.Status), obs.Int64("bytes", ev.Bytes), obs.Int("triples", ev.Triples))
		}
		span.End()
	}()

	attemptCtx := ctx
	if t := d.Retry.attemptTimeout(); t > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	// The body timer needs its own cancel to abort an in-flight read of a
	// trickling body without waiting out the attempt timeout.
	bodyCancel := context.CancelFunc(func() {})
	if d.BodyTimeout > 0 {
		attemptCtx, bodyCancel = context.WithCancel(attemptCtx)
		defer bodyCancel()
	}

	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, url, nil)
	if err != nil {
		ev.Err = err.Error()
		return nil, fmt.Errorf("deref: %w", err)
	}
	req.Header.Set("Accept", AcceptHeader)
	// Propagate the W3C trace context: the server can join its own span to
	// this attempt's. Free when tracing is off (nil span renders "").
	if tp := span.Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	if d.UserAgent != "" {
		req.Header.Set("User-Agent", d.UserAgent)
	}
	if d.Auth != nil {
		req.Header.Set("Authorization", "Bearer "+d.Auth.Token)
		req.Header.Set("X-WebID", d.Auth.WebID)
	}
	if vals.ETag != "" {
		req.Header.Set("If-None-Match", vals.ETag)
	}
	if vals.LastModified != "" {
		req.Header.Set("If-Modified-Since", vals.LastModified)
	}

	resp, err := client.Do(req)
	if err != nil {
		ev.Err = err.Error()
		return nil, &Error{URL: url, Retryable: classifyTransport(ctx, err), Err: err}
	}
	defer resp.Body.Close()
	ev.Status = resp.StatusCode
	// Absorb the server-reported share of this fetch (handler time plus
	// configured/injected delays), splitting wall time into server cost
	// and network cost for the critical-path analysis.
	if st := resp.Header.Values(obs.ServerTimingHeader); len(st) > 0 {
		ev.ServerUS = obs.ParseServerTiming(st).Microseconds()
	}

	// Headers are in; from here the body must arrive in full within
	// BodyTimeout or the read is aborted as a slow-loris transfer.
	var slowTripped atomic.Bool
	if d.BodyTimeout > 0 {
		timer := time.AfterFunc(d.BodyTimeout, func() {
			slowTripped.Store(true)
			bodyCancel()
		})
		defer timer.Stop()
	}

	// The body lives in a pooled buffer until the segment is built: nothing
	// returned from here may alias it. Read one byte past the cap so an
	// oversized body is detected, not silently truncated.
	limit := d.BodyLimit()
	bufp := bodyPool.Get().(*[]byte)
	body, err := readBody(resp.Body, *bufp, resp.ContentLength, limit)
	defer func() {
		if cap(body) <= maxPooledBody {
			*bufp = body[:0]
		}
		bodyPool.Put(bufp)
	}()
	if err != nil {
		if slowTripped.Load() {
			ev.Err = ErrSlowBody.Error()
			return nil, &Error{URL: url, Status: resp.StatusCode,
				Err: fmt.Errorf("body not complete within %v: %w", d.BodyTimeout, ErrSlowBody)}
		}
		ev.Err = err.Error()
		return nil, &Error{URL: url, Status: resp.StatusCode,
			Retryable: classifyTransport(ctx, err),
			Err:       fmt.Errorf("reading body: %w", err)}
	}
	if int64(len(body)) > limit {
		ev.Err = "body exceeds size limit"
		return nil, &Error{URL: url, Status: resp.StatusCode,
			Err: fmt.Errorf("body exceeds %d-byte limit: %w", limit, ErrBodyLimit)}
	}
	ev.Bytes = int64(len(body))

	if resp.StatusCode == http.StatusNotModified && !vals.Zero() {
		// The cached copy is current; the caller (a shared cache) keeps
		// serving its stored parse. Reported as a 304, not as a fetched
		// document.
		return &Result{URL: url, FinalURL: url, Status: resp.StatusCode,
			NotModified: true, Validators: vals}, nil
	}

	if resp.StatusCode != http.StatusOK {
		ev.Err = statusErr(resp.StatusCode)
		derr := &Error{URL: url, Status: resp.StatusCode, Retryable: RetryableStatus(resp.StatusCode)}
		if derr.Retryable {
			if ra, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				derr.RetryAfter = ra
			}
		}
		return nil, derr
	}

	finalURL := url
	if resp.Request != nil && resp.Request.URL != nil {
		finalURL = resp.Request.URL.String()
	}

	ctype := resp.Header.Get("Content-Type")
	if i := strings.IndexByte(ctype, ';'); i >= 0 {
		ctype = ctype[:i]
	}
	ctype = strings.TrimSpace(strings.ToLower(ctype))
	switch ctype {
	case "", "text/turtle", "application/n-triples", "text/n3", "application/trig":
		// Parse below; N-Triples is a Turtle subset.
	default:
		ev.Err = "unsupported content type " + ctype
		return nil, &Error{URL: url, Status: resp.StatusCode,
			Err: fmt.Errorf("unsupported content type %q", ctype)}
	}

	// One pass from the response bytes to the segment, built here, by the one
	// fetch of this document version: no query that hits it in the cache
	// builds anything. The parser emits IDs, looking terms up by substrings
	// of the body, and the link table is scanned from those IDs: nothing is
	// decoded.
	dict := d.Dict
	if dict == nil {
		dict = rdf.NewDict()
	}
	opts := turtle.Options{Base: finalURL, BlankPrefix: "d" + strconv.FormatInt(docCounter.Add(1), 10) + ".", Dict: dict}
	seg := &Segment{Dict: dict}
	if seg.Triples, err = turtle.ParseIDs(body, opts); err != nil {
		ev.Err = err.Error()
		return nil, &Error{URL: url, Status: resp.StatusCode, Err: err}
	}
	seg.Source = dict.Intern(rdf.NewIRI(finalURL))
	ev.Triples = len(seg.Triples)
	seg.Links = extract.ScanIDs(dict, seg.Triples)
	return &Result{URL: url, FinalURL: finalURL, Segment: seg, Status: resp.StatusCode, Bytes: ev.Bytes,
		Validators: Validators{ETag: resp.Header.Get("ETag"), LastModified: resp.Header.Get("Last-Modified")}}, nil
}
