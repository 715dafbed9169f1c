// Package linkqueue provides the link queue at the heart of link traversal
// query processing (paper Fig. 1): traversal is initialized with seed URLs,
// and every dereferenced document contributes newly discovered links that
// are appended for later dereferencing.
//
// Three disciplines are provided, selected by Policy: a plain FIFO queue
// (breadth-first traversal, the Comunica default and the differential-testing
// oracle); a priority queue that ranks links by how they were discovered —
// type-index instances, which are known to contain query-relevant data,
// ahead of blind container members; and the guided queue (guided.go), which
// scores links by query relevance and source-document productivity and pops
// round-robin across origins — the link-queue enhancements the paper points
// to as future work [34]. The traversal loop (internal/core) pushes and pops
// the bare queue; a discipline that ranks or learns says so by implementing
// Scorer or Feedback.
package linkqueue

import (
	"container/heap"
	"sync"
)

// Link is one queued dereferencing task.
type Link struct {
	// URL is the document to dereference (no fragment).
	URL string
	// Via is the document in which the link was discovered; empty for
	// seeds.
	Via string
	// Reason names the link's discovery label ("seed", "type-index",
	// "ldp-container", "storage", ...). Priority queues rank on it.
	Reason string
	// Extractor is the Name() of the link extractor that produced the
	// link ("seed" for seeds). The traversal topology labels discovery
	// edges with it.
	Extractor string
	// Depth is the traversal depth (seeds are 0).
	Depth int
	// Key, when set, is Normalize(URL) computed ahead of time: links read
	// from a document's link table carry it, so pushing them parses no URL.
	// Empty means the queue normalizes URL itself.
	Key string
}

// dedupKey is the normalized URL the queues deduplicate on.
func (l Link) dedupKey() string {
	if l.Key != "" {
		return l.Key
	}
	return Normalize(l.URL)
}

// Queue is the interface shared by queue disciplines. Implementations are
// safe for concurrent use.
type Queue interface {
	// Push enqueues a link; a URL already seen (queued or popped) is
	// silently dropped, and Push reports whether the link was accepted.
	Push(l Link) bool
	// Pop dequeues the next link; ok is false when the queue is empty.
	Pop() (Link, bool)
	// Len returns the number of currently queued links.
	Len() int
	// Seen reports how many distinct URLs were ever accepted.
	Seen() int
}

// FIFO is the breadth-first link queue.
type FIFO struct {
	mu    sync.Mutex
	items []Link
	seen  map[string]bool
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO {
	return &FIFO{seen: map[string]bool{}}
}

// Push implements Queue. Deduplication is on the normalized URL (scheme and
// host case, default ports), so spoofed variants of a visited document —
// "HTTP://Host:80/x" for a visited "http://host/x" — are rejected rather
// than re-fetched.
func (q *FIFO) Push(l Link) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	key := l.dedupKey()
	if q.seen[key] {
		return false
	}
	q.seen[key] = true
	q.items = append(q.items, l)
	return true
}

// Pop implements Queue.
func (q *FIFO) Pop() (Link, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Link{}, false
	}
	l := q.items[0]
	q.items = q.items[1:]
	return l, true
}

// Len implements Queue.
func (q *FIFO) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Seen implements Queue.
func (q *FIFO) Seen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.seen)
}

// DefaultPriorities ranks discovery reasons: smaller runs earlier. Links
// found through the Solid type index are most likely to contain instances
// of the classes a query asks for, so they jump ahead of blind traversal.
var DefaultPriorities = map[string]int{
	"seed":                 0,
	"type-index":           1,
	"type-index-container": 1,
	"solid-profile":        2,
	"storage":              2,
	"match":                3,
	"ldp-container":        4,
	"see-also":             5,
	"all":                  6,
}

// Priority is a priority link queue ordered by reason rank, then FIFO
// within a rank.
type Priority struct {
	mu    sync.Mutex
	h     linkHeap
	seen  map[string]bool
	ranks map[string]int
	seq   int
}

// NewPriority returns an empty priority queue with the given reason ranks;
// nil means DefaultPriorities.
func NewPriority(ranks map[string]int) *Priority {
	if ranks == nil {
		ranks = DefaultPriorities
	}
	return &Priority{seen: map[string]bool{}, ranks: ranks}
}

type heapItem struct {
	link Link
	rank int
	seq  int
}

type linkHeap []heapItem

func (h linkHeap) Len() int { return len(h) }
func (h linkHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h linkHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *linkHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *linkHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Push implements Queue. Like FIFO.Push, deduplication is on the
// normalized URL, so case/port-spoofed variants of a visited document are
// rejected.
func (q *Priority) Push(l Link) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	key := l.dedupKey()
	if q.seen[key] {
		return false
	}
	q.seen[key] = true
	rank, ok := q.ranks[l.Reason]
	if !ok {
		rank = 10
	}
	q.seq++
	heap.Push(&q.h, heapItem{link: l, rank: rank, seq: q.seq})
	return true
}

// Pop implements Queue.
func (q *Priority) Pop() (Link, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.h.Len() == 0 {
		return Link{}, false
	}
	it := heap.Pop(&q.h).(heapItem)
	return it.link, true
}

// Len implements Queue.
func (q *Priority) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len()
}

// Seen implements Queue.
func (q *Priority) Seen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.seen)
}
