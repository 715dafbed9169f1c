// Package podserver serves simulated Solid pods over real HTTP. It
// reproduces the environment of the paper's demonstration scenario: a host
// exposing many pods under /pods/<id>/, each a hierarchy of Turtle
// documents with LDP container listings, WebID profiles, and type indexes.
// Document-level access control is enforced from bearer WebID credentials,
// and an artificial network latency can be injected so that resource
// waterfalls (Figs. 4 and 5) exhibit realistic request timing.
//
// Responses carry strong ETags and Last-Modified stamps, and conditional
// requests (If-None-Match / If-Modified-Since) are answered 304 Not
// Modified, so revalidating clients — the engine's shared document cache in
// particular — can refresh an entry without re-downloading the body.
package podserver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/obs"
	"ltqp/internal/solid"
)

// TokenFor returns the simulated identity provider's bearer token for a
// WebID. The dereferencer presents it; the server verifies it. This stands
// in for the Solid-OIDC flow of the paper's demo ("Log in").
func TokenFor(webID string) string { return "sig:" + webID }

// servedDoc is a fully rendered document ready to serve.
type servedDoc struct {
	turtle string
	access solid.Access
	etag   string    // strong validator over the body
	mod    time.Time // Last-Modified (second resolution, per HTTP-date)
}

// etagFor computes the strong entity tag of a body: a quoted content hash,
// so identical bodies validate across restarts and rebases only change the
// tag when they change the body.
func etagFor(body string) string {
	sum := sha256.Sum256([]byte(body))
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// Server hosts a set of materialized pods.
type Server struct {
	mu   sync.RWMutex
	docs map[string]servedDoc // absolute URL (no fragment) → doc

	// Latency is added to every response, simulating network RTT.
	Latency time.Duration
	// BytesPerSecond, when > 0, adds size-proportional delay.
	BytesPerSecond int64
	// Spans, when non-nil, records a server-side span for every request:
	// the pod half of the distributed trace, joined to the client's spans
	// through the traceparent request header.
	Spans *obs.ServerSpanLog

	// Fallback, when non-nil, handles requests for URLs no document is
	// registered under (instead of 404). Adversarial tests mount hostile
	// generators here so attack documents share the benign pods' origin.
	Fallback http.Handler

	// modTime stamps documents registered from now on; defaults to server
	// creation time. HTTP dates carry second resolution, so it is truncated.
	modTime time.Time

	requests    atomic.Int64
	notModified atomic.Int64
}

// New returns an empty server.
func New() *Server {
	return &Server{docs: map[string]servedDoc{}, modTime: time.Now().UTC().Truncate(time.Second)}
}

// AddPod materializes the pod (containers included) and registers all its
// documents.
func (s *Server) AddPod(p *solid.Pod) {
	docs := p.Materialize()
	s.mu.Lock()
	defer s.mu.Unlock()
	for path, d := range docs {
		body := p.Turtle(d)
		s.docs[p.IRI(path)] = servedDoc{turtle: body, access: d.Access, etag: etagFor(body), mod: s.modTime}
	}
}

// AddDocument registers one standalone document by absolute URL.
func (s *Server) AddDocument(url, turtleBody string, access solid.Access) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[url] = servedDoc{turtle: turtleBody, access: access, etag: etagFor(turtleBody), mod: s.modTime}
}

// DocumentCount returns the number of registered documents.
func (s *Server) DocumentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// RequestCount returns the number of HTTP requests served.
func (s *Server) RequestCount() int64 { return s.requests.Load() }

// NotModifiedCount returns how many requests were answered 304.
func (s *Server) NotModifiedCount() int64 { return s.notModified.Load() }

// ResetRequestCount zeroes the request counters (benchmarks).
func (s *Server) ResetRequestCount() {
	s.requests.Store(0)
	s.notModified.Store(0)
}

// Rebase rewrites all registered document URLs and bodies from one base URL
// prefix to another. The simulated environment builds pods under a
// placeholder origin; once the HTTP test server assigns a real port, Rebase
// moves the content there so that all intra-pod links dereference. Bodies
// change, so entity tags are recomputed.
func (s *Server) Rebase(oldPrefix, newPrefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]servedDoc, len(s.docs))
	for u, d := range s.docs {
		nu := strings.Replace(u, oldPrefix, newPrefix, 1)
		d.turtle = strings.ReplaceAll(d.turtle, oldPrefix, newPrefix)
		d.etag = etagFor(d.turtle)
		out[nu] = d
	}
	s.docs = out
}

// srvTiming tracks one request's server-side timing: when handling began
// and how much of the elapsed time was artificial delay (configured
// latency, bandwidth shaping) rather than handler work.
type srvTiming struct {
	start time.Time
	delay time.Duration
}

// setServerTiming writes the Server-Timing response header — app (handler
// work) and delay (simulated latency) in milliseconds — so the client can
// split the fetch into server cost and network cost. Must run before the
// status/body is written; Add keeps any fault;dur= entry a fault-injection
// middleware already attached.
func (t srvTiming) setServerTiming(w http.ResponseWriter) {
	app := time.Since(t.start) - t.delay
	if app < 0 {
		app = 0
	}
	w.Header().Add(obs.ServerTimingHeader,
		obs.FormatServerTiming("app", app)+", "+obs.FormatServerTiming("delay", t.delay))
}

// ServeHTTP implements http.Handler with Solid-ish behaviour: Turtle
// responses with strong validators, 304 on successful revalidation, 401/403
// for protected documents, 404 otherwise. Every response carries a
// Server-Timing header; when Spans is set, a server-side span is recorded,
// joined to the client's trace via the traceparent request header.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	t := srvTiming{start: time.Now()}
	status, bytes := http.StatusOK, int64(0)
	if s.Spans != nil {
		tp, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		defer func() {
			sp := obs.ServerSpan{
				SpanID:  obs.NewSpanID().String(),
				URL:     requestURL(r),
				Start:   t.start,
				DurMS:   float64(time.Since(t.start).Microseconds()) / 1000,
				DelayMS: float64(t.delay.Microseconds()) / 1000,
				Status:  status,
				Bytes:   bytes,
			}
			if !tp.TraceID.IsZero() {
				sp.TraceID = tp.TraceID.String()
				sp.ParentID = tp.SpanID.String()
			}
			s.Spans.Record(sp)
		}()
	}
	fail := func(msg string, code int) {
		status = code
		t.setServerTiming(w)
		http.Error(w, msg, code)
	}
	if s.Latency > 0 {
		time.Sleep(s.Latency)
		t.delay += s.Latency
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		fail("method not allowed", http.StatusMethodNotAllowed)
		return
	}
	docURL := requestURL(r)
	s.mu.RLock()
	d, ok := s.docs[docURL]
	s.mu.RUnlock()
	if !ok {
		if s.Fallback != nil {
			s.Fallback.ServeHTTP(w, r)
			return
		}
		fail("not found", http.StatusNotFound)
		return
	}
	if !d.access.Public {
		webID, authorized := s.authorize(r, d.access)
		if webID == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="solid"`)
			fail("unauthorized", http.StatusUnauthorized)
			return
		}
		if !authorized {
			fail("forbidden", http.StatusForbidden)
			return
		}
	}
	w.Header().Set("ETag", d.etag)
	w.Header().Set("Last-Modified", d.mod.Format(http.TimeFormat))
	if notModified(r, d) {
		s.notModified.Add(1)
		status = http.StatusNotModified
		t.setServerTiming(w)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if s.BytesPerSecond > 0 {
		bd := time.Duration(int64(len(d.turtle)) * int64(time.Second) / s.BytesPerSecond)
		time.Sleep(bd)
		t.delay += bd
	}
	w.Header().Set("Content-Type", "text/turtle")
	w.Header().Set("Link", `<http://www.w3.org/ns/ldp#Resource>; rel="type"`)
	t.setServerTiming(w)
	if r.Method == http.MethodHead {
		return
	}
	n, _ := fmt.Fprint(w, d.turtle)
	bytes = int64(n)
}

// notModified evaluates the request's conditional headers against the
// document's validators. If-None-Match takes precedence over
// If-Modified-Since, per RFC 9110 §13.1.
func notModified(r *http.Request, d servedDoc) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if inm == "*" {
			return true
		}
		for _, candidate := range strings.Split(inm, ",") {
			candidate = strings.TrimSpace(candidate)
			// Weak comparison: a W/ prefix on either side is ignored.
			if strings.TrimPrefix(candidate, "W/") == strings.TrimPrefix(d.etag, "W/") {
				return true
			}
		}
		return false
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			return !d.mod.After(t)
		}
	}
	return false
}

// authorize extracts and verifies the caller's WebID, then checks the ACL.
func (s *Server) authorize(r *http.Request, access solid.Access) (webID string, ok bool) {
	auth := r.Header.Get("Authorization")
	if !strings.HasPrefix(auth, "Bearer ") {
		return "", false
	}
	token := strings.TrimPrefix(auth, "Bearer ")
	claimed := r.Header.Get("X-WebID")
	if claimed == "" || TokenFor(claimed) != token {
		return "", false
	}
	for _, agent := range access.Agents {
		if agent == claimed {
			return claimed, true
		}
	}
	return claimed, false
}

// requestURL reconstructs the absolute document URL of a request.
func requestURL(r *http.Request) string {
	scheme := "http"
	if r.TLS != nil {
		scheme = "https"
	}
	u := url.URL{Scheme: scheme, Host: r.Host, Path: r.URL.Path}
	return u.String()
}
