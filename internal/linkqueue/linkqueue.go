// Package linkqueue provides the link queue at the heart of link traversal
// query processing (paper Fig. 1): traversal is initialized with seed URLs,
// and every dereferenced document contributes newly discovered links that
// are appended for later dereferencing.
//
// Two disciplines are provided, selected by Policy: a plain FIFO queue
// (breadth-first traversal, the Comunica default and the differential-testing
// oracle), and the guided queue (guided.go), which scores links by how they
// were discovered — type-index instances, known to contain query-relevant
// data, ahead of blind container members — by query relevance and by
// source-document productivity, and pops round-robin across origins: the
// link-queue enhancements the paper points to as future work [34]. The
// traversal loop (package ltqp) pushes and pops the bare queue; a
// discipline that ranks or learns says so by implementing Scorer or
// Feedback.
package linkqueue

import "sync"

// Link is one queued dereferencing task.
type Link struct {
	// URL is the document to dereference (no fragment).
	URL string
	// Via is the document in which the link was discovered; empty for
	// seeds.
	Via string
	// Reason names the link's discovery label ("seed", "type-index",
	// "ldp-container", "storage", ...). The guided queue ranks on it.
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
