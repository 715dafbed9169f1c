package linkqueue

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestFIFOOrderAndDedup(t *testing.T) {
	q := NewFIFO()
	if !q.Push(Link{URL: "http://a", Reason: "seed"}) {
		t.Error("first push should be accepted")
	}
	if q.Push(Link{URL: "http://a", Reason: "match"}) {
		t.Error("duplicate URL should be dropped")
	}
	q.Push(Link{URL: "http://b"})
	q.Push(Link{URL: "http://c"})
	if q.Len() != 3 || q.Seen() != 3 {
		t.Errorf("Len = %d, Seen = %d", q.Len(), q.Seen())
	}
	var order []string
	for {
		l, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, l.URL)
	}
	if fmt.Sprint(order) != "[http://a http://b http://c]" {
		t.Errorf("order = %v", order)
	}
	// Popped URLs stay deduplicated.
	if q.Push(Link{URL: "http://a"}) {
		t.Error("re-push after pop should be dropped")
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty queue should report !ok")
	}
}

// TestPriorityRanksReasons pins the guided queue's reason tiers: with
// every link on one origin (so round-robin does not interleave) and no
// relevance or productivity boost, links pop in tier order.
func TestPriorityRanksReasons(t *testing.T) {
	q := NewGuided(nil)
	for _, reason := range []string{"all", "ldp-container", "mystery", "see-also", "type-index", "seed", "storage", "match"} {
		q.Push(Link{URL: "http://pod/" + reason, Reason: reason})
	}
	var order []string
	for {
		l, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, l.Reason)
	}
	want := "[seed type-index storage match ldp-container see-also all mystery]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestQueuesConcurrentSafety(t *testing.T) {
	for _, q := range []Queue{NewFIFO(), NewGuided(nil)} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					q.Push(Link{URL: fmt.Sprintf("http://w%d-%d", w, i)})
					q.Pop()
				}
			}(w)
		}
		wg.Wait()
		if q.Seen() != 400 {
			t.Errorf("Seen = %d, want 400", q.Seen())
		}
	}
}

func TestQueueProperties(t *testing.T) {
	// Property: popping yields each accepted URL exactly once.
	f := func(urls []string) bool {
		q := NewGuided(nil)
		accepted := map[string]bool{}
		for _, u := range urls {
			if u == "" {
				continue
			}
			if q.Push(Link{URL: u, Reason: "match"}) {
				if accepted[u] {
					return false // accepted a duplicate
				}
				accepted[u] = true
			}
		}
		popped := map[string]bool{}
		for {
			l, ok := q.Pop()
			if !ok {
				break
			}
			if popped[l.URL] {
				return false
			}
			popped[l.URL] = true
		}
		return len(popped) == len(accepted)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The FIFO reuses its array: random interleavings of pushes (with repeated
// URLs) and pops, long enough to cross many emptyings and tail moves, pop in
// the order of a plain-slice reference, drop what that reference has seen,
// and report its length. The array stays bounded by the live queue.
func TestFIFOReusesArrayLikeSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := NewFIFO()
	var ref []string
	seen := map[string]bool{}
	peak := 0
	for step := 0; step < 20000; step++ {
		// Phases that favour pushes, then pops, so the queue both drains
		// to empty and stays long for a while.
		pushBias := 3 + 4*((step/500)%2)
		if rng.Intn(10) < pushBias {
			u := "http://pod/" + strconv.Itoa(rng.Intn(6000))
			if got, want := q.Push(Link{URL: u}), !seen[u]; got != want {
				t.Fatalf("step %d: Push(%s) = %v, reference %v", step, u, got, want)
			}
			if !seen[u] {
				seen[u] = true
				ref = append(ref, u)
			}
		} else {
			l, ok := q.Pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: Pop ok = %v with %d queued in the reference", step, ok, len(ref))
			}
			if ok {
				if l.URL != ref[0] {
					t.Fatalf("step %d: popped %s, reference %s", step, l.URL, ref[0])
				}
				ref = ref[1:]
			}
		}
		if q.Len() != len(ref) || q.Seen() != len(seen) {
			t.Fatalf("step %d: Len = %d, Seen = %d; reference %d, %d", step, q.Len(), q.Seen(), len(ref), len(seen))
		}
		peak = max(peak, len(ref))
		if c := cap(q.items); c > 4*peak+8 {
			t.Fatalf("step %d: array capacity %d for a peak of %d queued links", step, c, peak)
		}
		for _, l := range q.items[:q.head] {
			if l != (Link{}) {
				t.Fatalf("step %d: a popped slot still holds %s", step, l.URL)
			}
		}
	}
}
