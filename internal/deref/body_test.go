package deref

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"ltqp/internal/rdf"
)

// TestReadBody pins the pre-sized read: the Content-Length hint sizes the
// buffer but is never trusted — a hint above the limit does not allocate past
// limit+1, a hint below the real length does not truncate, a body over the
// limit comes back longer than it (so the caller rejects it), and a buffer
// with room is reused, not replaced.
func TestReadBody(t *testing.T) {
	doc := bytes.Repeat([]byte("<http://s> <http://p> <http://o> .\n"), 300) // 10500 bytes
	for _, c := range []struct {
		name        string
		hint, limit int64
		wantCap     int // exact capacity of a fresh buffer, 0: only bounded by limit+1
	}{
		{"honest Content-Length: one allocation of the exact size", int64(len(doc)), 1 << 20, len(doc) + 1},
		{"no Content-Length: grown from 4 KiB", -1, 1 << 20, 0},
		{"Content-Length far above the limit", 1 << 40, 16 << 10, 16<<10 + 1},
		{"Content-Length below the real length", 10, 1 << 20, 0},
		{"body exactly at the limit", int64(len(doc)), int64(len(doc)), len(doc) + 1},
	} {
		for _, chunked := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(doc)
			if chunked {
				r = iotest.OneByteReader(r)
			}
			got, err := readBody(r, nil, c.hint, c.limit)
			if err != nil || !bytes.Equal(got, doc) {
				t.Errorf("%s (chunked %v): read %d bytes, error %v; want all %d", c.name, chunked, len(got), err, len(doc))
			}
			if int64(cap(got)) > c.limit+1 || c.wantCap != 0 && cap(got) != c.wantCap {
				t.Errorf("%s (chunked %v): buffer capacity %d, want %d and never over limit+1 = %d", c.name, chunked, cap(got), c.wantCap, c.limit+1)
			}
		}
	}

	for _, hint := range []int64{-1, 100, int64(len(doc)), 1 << 40} {
		got, err := readBody(bytes.NewReader(doc), nil, hint, 4<<10)
		if err != nil || len(got) != 4<<10+1 || cap(got) != 4<<10+1 {
			t.Errorf("body over the limit, hint %d: len %d cap %d error %v; want limit+1 bytes read and allocated", hint, len(got), cap(got), err)
		}
	}

	buf := make([]byte, 0, 16<<10)
	got, err := readBody(bytes.NewReader(doc), append(buf, "stale"...), int64(len(doc)), 1<<20)
	if err != nil || !bytes.Equal(got, doc) || &got[0] != &buf[:1][0] {
		t.Errorf("a buffer with room must be reused from its start: error %v, %d bytes", err, len(got))
	}

	broken := errors.New("connection reset")
	got, err = readBody(io.MultiReader(bytes.NewReader(doc[:100]), iotest.ErrReader(broken)), nil, int64(len(doc)), 1<<20)
	if !errors.Is(err, broken) || len(got) != 100 {
		t.Errorf("a failing read: %d bytes, error %v; want the 100 bytes read and the reader's error", len(got), err)
	}
}

// rawResponse hijacks the connection and writes resp verbatim, so a test can
// send a Content-Length that does not match the body.
func rawResponse(t *testing.T, w http.ResponseWriter, resp string) {
	t.Helper()
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	fmt.Fprint(conn, resp)
}

// TestLyingContentLength: a response that announces more bytes than it sends
// is a truncated body — a retryable transport failure, retried to success —
// and neither it nor an oversized announcement makes the dereferencer
// allocate what was announced; a body over the limit is ErrBodyLimit whatever
// was announced.
func TestLyingContentLength(t *testing.T) {
	const doc = `<http://s> <http://p> "v" .`
	var hits atomic.Int32
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/big":
			w.Header().Set("Content-Type", "text/turtle")
			fmt.Fprint(w, doc, strings.Repeat("\n# padding", 200))
		case hits.Add(1) == 1:
			rawResponse(t, w, "HTTP/1.1 200 OK\r\nContent-Type: text/turtle\r\nContent-Length: 4000000000\r\n\r\n"+doc)
		default:
			w.Header().Set("Content-Type", "text/turtle")
			fmt.Fprint(w, doc)
		}
	})
	var slept []time.Duration
	d := &Dereferencer{Client: ts.Client(), MaxBodyBytes: 1 << 10, Retry: fastPolicy(3, &slept), Dict: rdf.NewDict()}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := d.Dereference(context.Background(), ts.URL+"/short", "", "seed")
	runtime.ReadMemStats(&after)
	if err != nil || len(res.DecodedTriples()) != 1 || hits.Load() != 2 || len(slept) != 1 {
		t.Fatalf("truncated body: %d hits, %d backoffs, error %v; want one retry and then the document", hits.Load(), len(slept), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("dereferencing a 27-byte body announced as 4 GB allocated %d bytes", grew)
	}

	_, err = d.Dereference(context.Background(), ts.URL+"/big", "", "seed")
	if !errors.Is(err, ErrBodyLimit) || IsRetryable(err) {
		t.Errorf("body over MaxBodyBytes: error %v, want a terminal ErrBodyLimit", err)
	}
}

// TestPooledBodyIsNeverAliased dereferences documents back to back on one
// goroutine — so each fetch reads into the buffer the previous one used —
// and checks the earlier results are untouched: with the engine's
// dictionary or a private one, nothing points into the buffer.
func TestPooledBodyIsNeverAliased(t *testing.T) {
	ts := newServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/turtle")
		fmt.Fprintf(w, "<#it> <http://example.org/name> \"document %s\" ; <http://example.org/n> \"%s\"^^<http://example.org/dt> .\n",
			r.URL.Path, strings.Repeat(r.URL.Path, 20))
	})
	for _, dict := range []*rdf.Dict{nil, rdf.NewDict()} {
		d := &Dereferencer{Client: ts.Client(), Dict: dict}
		var results []*Result
		for i := 0; i < 8; i++ {
			res, err := d.Dereference(context.Background(), fmt.Sprintf("%s/doc%d", ts.URL, i), "", "seed")
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		for i, res := range results {
			path := fmt.Sprintf("/doc%d", i)
			want := []rdf.Triple{
				{S: rdf.NewIRI(ts.URL + path + "#it"), P: rdf.NewIRI("http://example.org/name"), O: rdf.NewLiteral("document " + path)},
				{S: rdf.NewIRI(ts.URL + path + "#it"), P: rdf.NewIRI("http://example.org/n"), O: rdf.NewTypedLiteral(strings.Repeat(path, 20), "http://example.org/dt")},
			}
			if len(res.DecodedTriples()) != 2 || res.DecodedTriples()[0] != want[0] || res.DecodedTriples()[1] != want[1] {
				t.Errorf("dict %v: %s reads %v after later fetches, want %v", dict != nil, path, res.DecodedTriples(), want)
			}
			if dict != nil && (len(res.Segment.Triples) != 2 || dict.DecodeTriple(res.Segment.Triples[1]) != want[1]) {
				t.Errorf("%s: segment decodes to something else than the document", path)
			}
		}
	}
}
