package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanUntracedIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything", Str("k", "v"))
	if sp != nil {
		t.Fatal("expected nil span on untraced context")
	}
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan must return the context unchanged")
	}
	// All nil-span methods must be safe.
	sp.End()
	sp.SetAttr(Int("n", 1))
	if sp.Name() != "" || sp.Duration() != 0 || sp.Children() != nil || sp.Attrs() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	sp.Walk(func(*Span) { t.Fatal("nil walk must not visit") })
}

func TestTraceTreeStructure(t *testing.T) {
	ctx, trace := NewTrace(context.Background(), "query", Str("query", "SELECT *"))
	pctx, parse := StartSpan(ctx, "parse")
	parse.End()
	if pctx == ctx {
		t.Fatal("traced StartSpan must derive a new context")
	}
	tctx, trav := StartSpan(ctx, "traverse")
	_, doc := StartSpan(tctx, "document", Str("url", "http://x/a"))
	_, d1 := StartSpan(ContextWithSpan(ctx, doc), "deref", Int("attempt", 1))
	d1.End()
	doc.End()
	trav.End()
	trace.End()

	root := trace.Root()
	if root.Name() != "query" {
		t.Fatalf("root = %s", root.Name())
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "parse" || kids[1].Name() != "traverse" {
		t.Fatalf("children = %v", kids)
	}
	if got := root.Count("deref"); got != 1 {
		t.Fatalf("deref count = %d", got)
	}
	if v, ok := root.Attr("query"); !ok || v != "SELECT *" {
		t.Fatalf("attr = %q %v", v, ok)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	ctx, trace := NewTrace(context.Background(), "query")
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, "document")
			sp.SetAttr(Bool("done", true))
			sp.End()
		}()
	}
	wg.Wait()
	if n := trace.Root().Count("document"); n != 50 {
		t.Fatalf("children = %d, want 50", n)
	}
}

func TestTraceJSONAndTree(t *testing.T) {
	ctx, trace := NewTrace(context.Background(), "query")
	_, sp := StartSpan(ctx, "parse", Str("lang", "sparql"), Int("depth", -3))
	time.Sleep(time.Millisecond)
	sp.SetAttr(Int64("bytes", 1<<40), Bool("cached", true), Bool("stale", false))
	sp.End()
	trace.End()

	data, err := trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var envelope TraceJSON
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, data)
	}
	if envelope.Schema != TraceSchemaVersion {
		t.Fatalf("schema = %d, want %d", envelope.Schema, TraceSchemaVersion)
	}
	decoded := envelope.Root
	if decoded.Name != "query" || len(decoded.Children) != 1 || decoded.Children[0].Name != "parse" {
		t.Fatalf("decoded = %+v", decoded)
	}
	// Typed attributes are rendered on export exactly as when they were
	// formatted eagerly.
	wantAttrs := []Attr{{Key: "lang", Value: "sparql"}, {Key: "depth", Value: "-3"},
		{Key: "bytes", Value: "1099511627776"}, {Key: "cached", Value: "true"}, {Key: "stale", Value: "false"}}
	if got := decoded.Children[0].Attrs; !reflect.DeepEqual(got, wantAttrs) {
		t.Errorf("exported attrs = %+v, want %+v", got, wantAttrs)
	}
	if got := sp.Attrs(); !reflect.DeepEqual(got, wantAttrs) {
		t.Errorf("Attrs() = %+v, want %+v", got, wantAttrs)
	}
	if decoded.Children[0].DurUS <= 0 {
		t.Fatal("child duration missing")
	}
	if decoded.Children[0].Duration == "" {
		t.Fatal("child human-readable duration missing")
	}

	tree := trace.Tree()
	if !strings.Contains(tree, "query") || !strings.Contains(tree, "└─ parse") {
		t.Fatalf("tree = %q", tree)
	}
	if !strings.Contains(tree, "lang=sparql") {
		t.Fatalf("tree missing attrs: %q", tree)
	}
}

func TestNilTraceExports(t *testing.T) {
	var trace *Trace
	data, err := trace.JSON()
	if err != nil || string(data) != "null" {
		t.Fatalf("nil trace JSON = %s, %v", data, err)
	}
	if trace.Tree() != "(no trace)\n" {
		t.Fatalf("nil tree = %q", trace.Tree())
	}
	trace.End()
}
