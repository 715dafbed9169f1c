// Package obs is the engine-wide observability subsystem: structured
// tracing (per-query span trees carried through context.Context), a
// process-level metrics registry (atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition), and live HTTP exposition
// endpoints (/metrics, /healthz, /debug/queries).
//
// The paper's demo is itself an observability artifact — Fig. 4's request
// waterfall and live result streaming exist so users can *see* traversal
// behave. This package extends that idea from one query to a whole process:
// where internal/metrics records the HTTP timeline of a single execution,
// obs aggregates counters across every query an engine serves and records
// *where* each query spent its time (parse → plan → per-document
// dereference attempts → link extraction → join/iterator stages).
//
// Tracing is opt-out cheap: when no trace is attached to the context,
// StartSpan performs a single context lookup and returns a nil *Span whose
// methods are all no-ops, so uninstrumented hot paths pay nothing.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Numeric and boolean
// attributes carry their typed value and are rendered into Value only when
// the span is read (Span.Attrs, and through it every export): building one
// on a hot path costs nothing when tracing is off and no formatting when it
// is on. An Attr obtained from a span always has Value set.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`

	kind attrKind
	num  int64
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, kind: attrInt, num: int64(value)} }

// Int64 builds an int64 attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, num: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if value {
		a.num = 1
	}
	return a
}

// rendered returns a with its typed value formatted into Value.
func (a Attr) rendered() Attr {
	switch a.kind {
	case attrInt:
		a.Value = strconv.FormatInt(a.num, 10)
	case attrBool:
		a.Value = strconv.FormatBool(a.num != 0)
	}
	a.kind, a.num = attrString, 0
	return a
}

// Span is one timed operation in a query's trace tree. Spans are created
// with StartSpan and closed with End; children may be created concurrently
// (parallel dereferences under one traversal span). All methods are safe on
// a nil receiver, which is how untraced executions skip the bookkeeping.
type Span struct {
	name  string
	start time.Time

	// W3C trace context: every span of one query shares traceID; spanID is
	// unique per span and parentID links the tree. Zero IDs mean the span
	// was created outside a trace (never happens via StartSpan, which
	// returns nil instead). Immutable after creation, so unguarded.
	traceID  TraceID
	spanID   SpanID
	parentID SpanID

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// spanKey carries the current parent span through a context.
type spanKeyType struct{}

var spanKey spanKeyType

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the current span, or nil when the context is
// untraced.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a child span under the context's current span. When the
// context carries no span (tracing disabled), it returns the context
// unchanged and a nil *Span — one interface lookup, no allocation.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := newSpan(name, attrs...)
	child.traceID = parent.traceID
	child.parentID = parent.spanID
	child.spanID = NewSpanID()
	parent.mu.Lock()
	parent.children = append(parent.children, child)
	parent.mu.Unlock()
	return ContextWithSpan(ctx, child), child
}

// newSpan copies attrs: callers' variadic slices must not escape, or every
// StartSpan call site would heap-allocate one even with tracing off.
func newSpan(name string, attrs ...Attr) *Span {
	return &Span{name: name, start: time.Now(), attrs: append([]Attr(nil), attrs...)}
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr appends an annotation to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// TraceID returns the span's trace ID (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's ID (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// ParentID returns the parent span's ID (zero on nil or root spans of a
// trace with no remote parent).
func (s *Span) ParentID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parentID
}

// TraceIDString returns the hex trace ID, or "" on a nil or untraced span —
// the form metrics exemplars and log correlation want, at zero cost when
// tracing is off.
func (s *Span) TraceIDString() string {
	if s == nil || s.traceID.IsZero() {
		return ""
	}
	return s.traceID.String()
}

// Traceparent renders the outbound traceparent header value for requests
// made under this span, with the sampled flag set. Returns "" on a nil or
// untraced span, so callers can inject unconditionally:
//
//	if tp := span.Traceparent(); tp != "" { req.Header.Set(...) }
func (s *Span) Traceparent() string {
	if s == nil || s.traceID.IsZero() {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID, FlagSampled)
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's wall time; for an unfinished span, the time
// elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Children returns a snapshot of the span's children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Attrs returns a snapshot of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.rendered()
	}
	return out
}

// Attr returns the value of the first attribute with the given key.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Walk visits the span and every descendant depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Count returns the number of descendant spans (including s) whose name
// matches.
func (s *Span) Count(name string) int {
	n := 0
	s.Walk(func(sp *Span) {
		if sp.name == name {
			n++
		}
	})
	return n
}

// TraceSchemaVersion identifies the trace export JSON layout. Bump it when
// the shape of TraceJSON/SpanJSON changes incompatibly, so downstream
// tooling can reject traces it does not understand.
const TraceSchemaVersion = 1

// TraceJSON is the versioned envelope of an exported trace.
type TraceJSON struct {
	Schema  int      `json:"schema"`
	TraceID string   `json:"trace_id,omitempty"`
	Root    SpanJSON `json:"root"`
}

// SpanJSON is the JSON shape of an exported span. Durations appear twice:
// numerically in microseconds for tooling, and as a human-readable string
// (time.Duration formatting) for eyeballing raw exports.
type SpanJSON struct {
	Name     string     `json:"name"`
	SpanID   string     `json:"span_id,omitempty"`
	ParentID string     `json:"parent_id,omitempty"`
	StartUS  int64      `json:"start_us"` // offset from the trace root, µs
	DurUS    int64      `json:"duration_us"`
	Duration string     `json:"duration"`
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []SpanJSON `json:"children,omitempty"`
}

func (s *Span) toJSON(epoch time.Time) SpanJSON {
	d := s.Duration()
	out := SpanJSON{
		Name:     s.name,
		StartUS:  s.start.Sub(epoch).Microseconds(),
		DurUS:    d.Microseconds(),
		Duration: d.Round(time.Microsecond).String(),
		Attrs:    s.Attrs(),
	}
	if !s.spanID.IsZero() {
		out.SpanID = s.spanID.String()
	}
	if !s.parentID.IsZero() {
		out.ParentID = s.parentID.String()
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, c.toJSON(epoch))
	}
	return out
}

// Trace is one query's span tree. Create it with NewTrace, attach it to the
// execution context, and export it with JSON or Tree after the query ends.
type Trace struct {
	root *Span
}

// NewTrace creates a trace rooted at a span with the given name and returns
// a context carrying that root, ready for StartSpan calls downstream.
func NewTrace(ctx context.Context, rootName string, attrs ...Attr) (context.Context, *Trace) {
	root := newSpan(rootName, attrs...)
	root.traceID = NewTraceID()
	root.spanID = NewSpanID()
	return ContextWithSpan(ctx, root), &Trace{root: root}
}

// NewTraceWithParent creates a trace that continues an incoming W3C trace
// context (e.g. extracted from a traceparent header): the root span joins
// the caller's trace ID and records the remote span as its parent.
func NewTraceWithParent(ctx context.Context, rootName string, parent Traceparent, attrs ...Attr) (context.Context, *Trace) {
	root := newSpan(rootName, attrs...)
	root.traceID = parent.TraceID
	root.parentID = parent.SpanID
	root.spanID = NewSpanID()
	if root.traceID.IsZero() {
		root.traceID = NewTraceID()
	}
	return ContextWithSpan(ctx, root), &Trace{root: root}
}

// ID returns the trace's hex trace ID ("" on nil).
func (t *Trace) ID() string { return t.Root().TraceIDString() }

// Snapshot exports the span tree as its JSON shape (offsets relative to the
// root's start), for embedding in larger documents such as kept
// TraceRecords. Returns nil on a nil trace.
func (t *Trace) Snapshot() *SpanJSON {
	if t == nil || t.root == nil {
		return nil
	}
	sj := t.root.toJSON(t.root.start)
	return &sj
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End closes the root span.
func (t *Trace) End() { t.Root().End() }

// JSON exports the trace as an indented, versioned JSON document:
// {"schema": 1, "root": {...span tree...}}.
func (t *Trace) JSON() ([]byte, error) {
	if t == nil || t.root == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(TraceJSON{Schema: TraceSchemaVersion, TraceID: t.ID(), Root: t.root.toJSON(t.root.start)}, "", "  ")
}

// Tree renders the trace as a human-readable indented tree:
//
//	query 12.3ms query="SELECT ..."
//	├─ parse 0.1ms
//	├─ traverse 11.0ms
//	│  ├─ document 2.1ms url=https://...
//	...
func (t *Trace) Tree() string {
	if t == nil || t.root == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	writeTree(&b, t.root, "", true, true)
	return b.String()
}

func writeTree(b *strings.Builder, s *Span, prefix string, isLast, isRoot bool) {
	line := prefix
	childPrefix := prefix
	if !isRoot {
		if isLast {
			line += "└─ "
			childPrefix += "   "
		} else {
			line += "├─ "
			childPrefix += "│  "
		}
	}
	b.WriteString(line)
	b.WriteString(s.Name())
	fmt.Fprintf(b, " %.1fms", float64(s.Duration().Microseconds())/1000)
	attrs := s.Attrs()
	// Stable attr order for readable, diffable output.
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	for _, a := range attrs {
		v := a.Value
		if len(v) > 60 {
			v = v[:57] + "..."
		}
		fmt.Fprintf(b, " %s=%s", a.Key, v)
	}
	b.WriteByte('\n')
	children := s.Children()
	for i, c := range children {
		writeTree(b, c, childPrefix, i == len(children)-1, false)
	}
}
