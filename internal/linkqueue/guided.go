package linkqueue

import (
	"container/heap"
	"strings"
	"sync"
)

// Relevance is what the guided queue knows about the running query: the
// documents of the constant IRIs mentioned in its patterns. A link pointing
// at a document the query names is almost certainly needed to satisfy a
// pattern, so it jumps the queue (the cMatch-style guidance of "Guided
// Link-Traversal-Based Query Processing").
type Relevance struct {
	// DocIRIs are the fragment-stripped document URLs of every constant
	// IRI in the query, normalized with Normalize.
	DocIRIs map[string]bool
}

// NewRelevance builds a Relevance from raw query IRIs (fragments stripped,
// URLs normalized).
func NewRelevance(iris []string) *Relevance {
	r := &Relevance{DocIRIs: make(map[string]bool, len(iris))}
	for _, iri := range iris {
		if i := strings.IndexByte(iri, '#'); i >= 0 {
			iri = iri[:i]
		}
		r.DocIRIs[Normalize(iri)] = true
	}
	return r
}

// Scorer is implemented by queue disciplines that rank links; the traversal
// loop surfaces the score on link_queued events so queue-policy decisions
// are observable.
type Scorer interface {
	// Score returns the discipline's current relevance score for a link
	// (higher runs earlier). Pure: it does not mutate the queue.
	Score(l Link) float64
}

// Feedback is implemented by queue disciplines that learn from traversal:
// the engine reports every ingested document's productivity — how many of
// its triples matched a query pattern predicate or class — before pushing
// the links discovered in it, so links from productive documents inherit a
// priority boost.
type Feedback interface {
	DocumentIngested(url string, relevantTriples, totalTriples int)
}

// reasonScore maps discovery reasons to base scores (higher runs earlier):
// seeds, then type-index links, then profile/storage roots, pattern
// matches, container members and blind links. The tiers are spaced wide
// enough that the relevance and productivity boosts interleave between
// them; an unknown reason scores 2, below every tier.
var reasonScore = map[string]float64{
	"seed":                 100,
	"type-index":           40,
	"type-index-container": 40,
	"solid-profile":        32,
	"storage":              32,
	"match":                24,
	"ldp-container":        12,
	"see-also":             8,
	"all":                  4,
}

// Boosts added on top of the reason tier.
const (
	// mentionBoost rewards links whose document URL appears as a constant
	// IRI in the query — a pattern cannot be satisfied without it.
	mentionBoost = 50
	// productivityBoost is the maximum reward for links discovered in a
	// document whose triples matched query patterns; scaled by the source
	// document's relevant-triple ratio.
	productivityBoost = 16
)

// Guided is the relevance-prioritized link queue: links are scored by query
// relevance (constant-IRI mentions, discovery reason, source-document
// productivity) and popped best-first — but round-robin across origins, so
// one host, however relevant (or hostile), cannot monopolize the traversal
// while others starve.
type Guided struct {
	mu   sync.Mutex
	rel  *Relevance
	seen map[string]bool
	// origins maps origin → its score-ordered sub-heap; ring fixes the
	// round-robin order (origins in first-seen order).
	origins map[string]*originHeap
	ring    []string
	rr      int
	length  int
	seq     int
	// prod records per-document productivity feedback: the fraction of a
	// document's triples that matched a query pattern, in [0, 1], plus a
	// flag that any triple matched at all.
	prod map[string]float64
	// typeIndexed marks (normalized) URLs reached through the query's type
	// index: the type-index registration and everything below it. Members
	// of such containers are instances of a class the query asks for, so
	// their ldp-contains links inherit the type-index tier instead of the
	// generic container tier — the structural payoff of type-index guidance.
	typeIndexed map[string]bool
}

// NewGuided returns an empty guided queue; nil relevance disables the
// constant-IRI mention boost but keeps reason scoring and fairness.
func NewGuided(rel *Relevance) *Guided {
	return &Guided{
		rel:         rel,
		seen:        map[string]bool{},
		origins:     map[string]*originHeap{},
		prod:        map[string]float64{},
		typeIndexed: map[string]bool{},
	}
}

type scoredItem struct {
	link  Link
	score float64
	seq   int
}

type originHeap []scoredItem

func (h originHeap) Len() int { return len(h) }
func (h originHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score // max-heap: best score first
	}
	return h[i].seq < h[j].seq // FIFO within a score
}
func (h originHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *originHeap) Push(x interface{}) { *h = append(*h, x.(scoredItem)) }
func (h *originHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// underTypeIndex reports whether a link lives below a type-index
// registration matched to the query: the registration's instance and
// container links directly, and — transitively — anything an ldp-contains
// edge reaches from such a document. Callers hold q.mu.
func (q *Guided) underTypeIndex(l Link) bool {
	switch l.Reason {
	case "type-index", "type-index-container":
		return true
	case "ldp-container":
		return q.typeIndexed[Normalize(l.Via)]
	}
	return false
}

// score computes a link's priority under the current feedback state.
// Callers hold q.mu.
func (q *Guided) score(l Link) float64 {
	s, ok := reasonScore[l.Reason]
	if !ok {
		s = 2
	}
	// Members of a type-index-matched container are instances of a class
	// the query names — promote them from the blind-container tier to just
	// under the type index itself. The first condition covers documents
	// whose own URL gained type-index evidence after they were queued
	// under a blander reason (see the dedup note in Push).
	if promoted := reasonScore["type-index"] - 2; s < promoted {
		if q.typeIndexed[l.dedupKey()] ||
			(l.Reason == "ldp-container" && q.typeIndexed[Normalize(l.Via)]) {
			s = promoted
		}
	}
	if q.rel != nil && q.rel.DocIRIs[l.dedupKey()] {
		s += mentionBoost
	}
	if ratio, ok := q.prod[Normalize(l.Via)]; ok {
		s += productivityBoost * ratio
	}
	// Shallow links edge out deep ones at equal relevance: breadth-first
	// tie-breaking keeps the traversal frontier from diving down one
	// deep chain (a link-bomb shape) when equally relevant siblings wait.
	s -= 0.25 * float64(l.Depth)
	return s
}

// Score implements Scorer.
func (q *Guided) Score(l Link) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.score(l)
}

// DocumentIngested implements Feedback: it records how productive a
// document turned out to be, so links discovered in it are boosted. Called
// by the engine after ingesting a document and before pushing its links.
func (q *Guided) DocumentIngested(url string, relevantTriples, totalTriples int) {
	if totalTriples <= 0 || relevantTriples <= 0 {
		return
	}
	ratio := float64(relevantTriples) / float64(totalTriples)
	q.mu.Lock()
	q.prod[Normalize(url)] = ratio
	q.mu.Unlock()
}

// Push implements Queue.
func (q *Guided) Push(l Link) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	key := l.dedupKey()
	// Lineage is learned even from deduplicated pushes: a container is
	// often discovered twice — first through the blind storage walk, then
	// through the type index — and whichever arrives first wins the queue
	// slot. The type-index evidence must still land, and the queued item
	// must be re-ranked under it, or the promotion hinges on a race.
	if q.underTypeIndex(l) && !q.typeIndexed[key] {
		q.typeIndexed[key] = true
		q.rescore(key)
	}
	if q.seen[key] {
		return false
	}
	q.seen[key] = true
	origin := Origin(l.URL)
	h, ok := q.origins[origin]
	if !ok {
		h = &originHeap{}
		q.origins[origin] = h
		q.ring = append(q.ring, origin)
	}
	q.seq++
	heap.Push(h, scoredItem{link: l, score: q.score(l), seq: q.seq})
	q.length++
	return true
}

// rescore re-ranks the queued entry for key (if any) under the current
// lineage/feedback state. Callers hold q.mu.
func (q *Guided) rescore(key string) {
	h, ok := q.origins[Origin(key)]
	if !ok {
		return
	}
	for i := range *h {
		if (*h)[i].link.dedupKey() == key {
			(*h)[i].score = q.score((*h)[i].link)
			heap.Fix(h, i)
			return
		}
	}
}

// Pop implements Queue: it advances round-robin to the next origin with
// queued links and returns that origin's best-scored link.
func (q *Guided) Pop() (Link, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.length == 0 {
		return Link{}, false
	}
	for i := 0; i < len(q.ring); i++ {
		origin := q.ring[q.rr%len(q.ring)]
		q.rr++
		h := q.origins[origin]
		if h.Len() == 0 {
			continue
		}
		it := heap.Pop(h).(scoredItem)
		q.length--
		return it.link, true
	}
	return Link{}, false
}

// Len implements Queue.
func (q *Guided) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.length
}

// Seen implements Queue.
func (q *Guided) Seen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.seen)
}
