package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ltqp/internal/metrics"
)

// chainEnv builds a synthetic dependent fetch chain a → b → c plus one
// concurrent unrelated fetch d, mirroring a 3-hop traversal: each document
// could only start once its parent's links were extracted.
func chainEnv(epoch time.Time) []metrics.Request {
	req := func(url, parent string, startMS, durMS int, status int) metrics.Request {
		return metrics.Request{
			URL:    url,
			Parent: parent,
			Start:  epoch.Add(time.Duration(startMS) * time.Millisecond),
			End:    epoch.Add(time.Duration(startMS+durMS) * time.Millisecond),
			Status: status,
			Server: 2 * time.Millisecond,
		}
	}
	return []metrics.Request{
		req("http://x/a.ttl", "", 0, 10, 200),
		req("http://x/b.ttl", "http://x/a.ttl", 10, 10, 200),
		req("http://x/c.ttl", "http://x/b.ttl", 20, 10, 200),
		req("http://x/d.ttl", "http://x/a.ttl", 10, 5, 200),
	}
}

func TestCritPathFirstResultChain(t *testing.T) {
	epoch := time.Now()
	reqs := chainEnv(epoch)
	cp := ComputeCritPath(reqs, epoch, []time.Duration{31 * time.Millisecond}, []string{"http://x/c.ttl"})
	if cp == nil {
		t.Fatal("nil critical path")
	}
	want := []string{"http://x/a.ttl", "http://x/b.ttl", "http://x/c.ttl"}
	if got := cp.FirstResultURLs(); !reflect.DeepEqual(got, want) {
		t.Errorf("first-result chain = %v, want %v", got, want)
	}
	if cp.TTFRMS != 31 {
		t.Errorf("TTFR = %v, want 31", cp.TTFRMS)
	}
	if cp.GatingMS != 30 {
		t.Errorf("gating = %v, want 30 (three serialized 10ms fetches)", cp.GatingMS)
	}
	if cp.ServerMS != 6 {
		t.Errorf("server share = %v, want 6", cp.ServerMS)
	}
	if cp.TotalMS != 30 {
		t.Errorf("total = %v, want 30", cp.TotalMS)
	}
	// The longest chain ends at the last-finishing fetch — c here too.
	if got := chainURLs(cp.LongestChain); !reflect.DeepEqual(got, want) {
		t.Errorf("longest chain = %v, want %v", got, want)
	}
}

func TestCritPathFallbackWithoutProvenance(t *testing.T) {
	epoch := time.Now()
	reqs := chainEnv(epoch)
	// No firstSources: gate = latest successful fetch completed before the
	// first result at 25ms — b.ttl (ends 20ms; c ends 30ms, after).
	cp := ComputeCritPath(reqs, epoch, []time.Duration{25 * time.Millisecond}, nil)
	want := []string{"http://x/a.ttl", "http://x/b.ttl"}
	if got := cp.FirstResultURLs(); !reflect.DeepEqual(got, want) {
		t.Errorf("fallback chain = %v, want %v", got, want)
	}
}

func TestCritPathRetryAndFailure(t *testing.T) {
	epoch := time.Now()
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	reqs := []metrics.Request{
		{URL: "http://x/a.ttl", Start: at(0), End: at(5), Status: 200},
		// First attempt at b fails; the retry succeeds later. The chain must
		// use the successful attempt.
		{URL: "http://x/b.ttl", Parent: "http://x/a.ttl", Start: at(5), End: at(8), Status: 503, Err: "503", Attempt: 1},
		{URL: "http://x/b.ttl", Parent: "http://x/a.ttl", Start: at(12), End: at(20), Status: 200, Attempt: 2},
	}
	cp := ComputeCritPath(reqs, epoch, []time.Duration{21 * time.Millisecond}, []string{"http://x/b.ttl"})
	chain := cp.FirstResultChain
	if len(chain) != 2 || chain[1].Status != 200 || chain[1].DurMS != 8 {
		t.Fatalf("chain must use the successful retry: %+v", chain)
	}
}

func TestCritPathCycleTerminates(t *testing.T) {
	epoch := time.Now()
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	// Adversarial cross-linking: a's parent is b and b's parent is a.
	reqs := []metrics.Request{
		{URL: "a", Parent: "b", Start: at(0), End: at(1), Status: 200},
		{URL: "b", Parent: "a", Start: at(1), End: at(2), Status: 200},
	}
	cp := ComputeCritPath(reqs, epoch, []time.Duration{3 * time.Millisecond}, []string{"b"})
	if n := len(cp.FirstResultChain); n != 2 {
		t.Fatalf("cycle not terminated: chain length %d", n)
	}
}

func TestCritPathEmptyAndNil(t *testing.T) {
	if cp := ComputeCritPath(nil, time.Now(), nil, nil); cp != nil {
		t.Error("no requests must yield a nil critical path")
	}
	var cp *CritPath
	if cp.FirstResultURLs() != nil {
		t.Error("nil CritPath accessors must be inert")
	}
	if !strings.Contains(cp.Render(40), "no critical path") {
		t.Error("nil CritPath must render the empty notice")
	}
}

func TestCritPathRenderMarksChain(t *testing.T) {
	epoch := time.Now()
	reqs := chainEnv(epoch)
	cp := ComputeCritPath(reqs, epoch, []time.Duration{31 * time.Millisecond}, []string{"http://x/c.ttl"})
	out := cp.Render(40)
	if !strings.Contains(out, "critical path to first result") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("critical-path bars must use the '#' fill:\n%s", out)
	}
	if !strings.Contains(out, "server 2.0ms") {
		t.Errorf("server share not annotated:\n%s", out)
	}
}

// A chain against a local pod server has no server share worth a note: the
// header leaves it out, as the rows do.
func TestCritPathRenderOmitsZeroServerShare(t *testing.T) {
	epoch := time.Now()
	reqs := chainEnv(epoch)
	for i := range reqs {
		reqs[i].Server = 10 * time.Microsecond
	}
	cp := ComputeCritPath(reqs, epoch, []time.Duration{31 * time.Millisecond}, []string{"http://x/c.ttl"})
	out := cp.Render(40)
	if !strings.Contains(out, "chain fetch 30.0ms:\n") {
		t.Errorf("header must end at the chain fetch time:\n%s", out)
	}
	if strings.Contains(out, "server") {
		t.Errorf("a 30 µs server share rounds to nothing and must not be noted:\n%s", out)
	}
}
