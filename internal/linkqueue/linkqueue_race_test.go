package linkqueue

// Concurrency tests for the link queue disciplines. The traversal loop has
// up to MaxConcurrent workers pushing freshly extracted links while the
// dispatcher pops — these tests drive both queues from many producers and
// consumers at once and are meant to run under -race.

import (
	"fmt"
	"sync"
	"testing"
)

// hammer drives the queue with producers pushes and consumers pops running
// concurrently, returning every link the consumers saw.
func hammer(t *testing.T, q Queue, producers, perProducer, consumers int) []Link {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(Link{
					URL:    fmt.Sprintf("http://h/p%d/doc%d", p, i),
					Reason: "seed",
				})
				// Duplicate pushes from a racing producer must be
				// dropped exactly once overall.
				q.Push(Link{URL: fmt.Sprintf("http://h/shared/doc%d", i), Reason: "ldp-container"})
			}
		}()
	}

	var mu sync.Mutex
	var popped []Link
	done := make(chan struct{})
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				l, ok := q.Pop()
				if !ok {
					select {
					case <-done:
						if l, ok := q.Pop(); ok { // drain stragglers
							mu.Lock()
							popped = append(popped, l)
							mu.Unlock()
							continue
						}
						return
					default:
						continue
					}
				}
				mu.Lock()
				popped = append(popped, l)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	return popped
}

func checkHammer(t *testing.T, q Queue, popped []Link, producers, perProducer int) {
	t.Helper()
	want := producers*perProducer + perProducer // distinct URLs: per-producer + shared
	if len(popped) != want {
		t.Fatalf("popped %d links, want %d", len(popped), want)
	}
	seen := map[string]bool{}
	for _, l := range popped {
		if seen[l.URL] {
			t.Fatalf("URL %s popped twice", l.URL)
		}
		seen[l.URL] = true
	}
	if q.Seen() != want {
		t.Errorf("Seen() = %d, want %d", q.Seen(), want)
	}
	if q.Len() != 0 {
		t.Errorf("Len() = %d after drain", q.Len())
	}
}

func TestFIFOConcurrent(t *testing.T) {
	q := NewFIFO()
	popped := hammer(t, q, 8, 200, 4)
	checkHammer(t, q, popped, 8, 200)
}

func TestPriorityConcurrent(t *testing.T) {
	q := NewGuided(nil)
	popped := hammer(t, q, 8, 200, 4)
	checkHammer(t, q, popped, 8, 200)
}

func TestConcurrentPushUniqueAcceptance(t *testing.T) {
	// Many goroutines race to push the same URL: exactly one Push may
	// report acceptance.
	for name, q := range map[string]Queue{"fifo": NewFIFO(), "priority": NewGuided(nil)} {
		q := q
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			accepted := make(chan bool, 64)
			for i := 0; i < 64; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					accepted <- q.Push(Link{URL: "http://h/contended", Reason: "match"})
				}()
			}
			wg.Wait()
			close(accepted)
			n := 0
			for ok := range accepted {
				if ok {
					n++
				}
			}
			if n != 1 {
				t.Errorf("accepted %d times, want exactly 1", n)
			}
		})
	}
}
