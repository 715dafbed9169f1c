package linkqueue

import (
	"fmt"
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
