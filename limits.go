package ltqp

import (
	"fmt"
	"sync"
	"time"

	"ltqp/internal/linkqueue"
	"ltqp/internal/metrics"
	"ltqp/internal/obs"
)

// Limit kinds, as they appear in TraversalLimitError, degradation reports,
// limit_tripped events and the ltqp_traversal_limit_trips_total metric.
const (
	// limitDocsPerOrigin fires when an origin has served its full
	// document budget and traversal tries to fetch another from it.
	limitDocsPerOrigin = "max-docs-per-origin"
	// limitBytesPerOrigin fires when an origin's served bytes crossed its
	// budget; further fetches from it are refused.
	limitBytesPerOrigin = "max-bytes-per-origin"
	// limitScope fires when a discovered link leaves the traversal
	// allowlist (the subweb the query is scoped to).
	limitScope = "scope"
	// limitFanout fires when one document proposes more links than the
	// per-document fanout cap — the link-bomb signature.
	limitFanout = "fanout"
	// limitQueueCap fires when the queue has accepted the maximum total
	// number of distinct links for one traversal.
	limitQueueCap = "queue-cap"
	// limitDocBytes fires when a response body exceeds the per-document
	// byte cap (an oversized-document attack, surfaced via deref).
	limitDocBytes = "doc-bytes"
	// limitSlowBody fires when a response body trickles in slower than
	// the body timeout allows (a slow-loris pod, surfaced via deref).
	limitSlowBody = "slow-body"
)

// TraversalLimits configures the traversal defenses (see Config.Limits) —
// the budgets and scopes that keep an unguarded open-web traversal from being steered into link bombs,
// loops, hostile origins, or resource exhaustion (the attack classes of the
// LTQP security-vulnerabilities analysis). The zero value disables every
// defense (the closed simulated environment needs none).
type TraversalLimits struct {
	// MaxDocsPerOrigin caps successful dereferences per origin
	// (scheme://host, default ports normalized); 0 = unbounded.
	MaxDocsPerOrigin int
	// MaxBytesPerOrigin caps body bytes read per origin; 0 = unbounded.
	MaxBytesPerOrigin int64
	// MaxInFlightPerOrigin bounds concurrent dereferences per origin, so
	// one slow (or slow-loris) host cannot absorb the whole global
	// concurrency budget; 0 = no per-origin bound.
	MaxInFlightPerOrigin int
	// MaxLinksPerDoc caps how many links one document may contribute to
	// the queue; the rest are pruned (link-bomb containment); 0 = unbounded.
	MaxLinksPerDoc int
	// MaxQueuedLinks caps the total distinct links one traversal will
	// ever accept; 0 = unbounded.
	MaxQueuedLinks int
	// Allowlist restricts traversal to URLs matching any of these
	// prefixes (compared on normalized URLs). Empty means unrestricted
	// unless ScopeToSeeds is set. Seeds are always in scope.
	Allowlist []string
	// ScopeToSeeds restricts traversal to the origins of the seed URLs —
	// the "subweb of the seeds" scope a pod owner would declare.
	ScopeToSeeds bool
	// MaxDocBytes caps one response body's size in bytes (0 = the
	// dereferencer's 64 MiB default).
	MaxDocBytes int64
	// BodyTimeout bounds how long one response body may take to arrive in
	// full; a slower (slow-loris) transfer is aborted. 0 = no bound beyond
	// the per-attempt retry timeout.
	BodyTimeout time.Duration
}

// Enabled reports whether any defense is configured.
func (l TraversalLimits) Enabled() bool {
	return l.MaxDocsPerOrigin > 0 || l.MaxBytesPerOrigin > 0 ||
		l.MaxInFlightPerOrigin > 0 || l.MaxLinksPerDoc > 0 ||
		l.MaxQueuedLinks > 0 || len(l.Allowlist) > 0 || l.ScopeToSeeds ||
		l.MaxDocBytes > 0 || l.BodyTimeout > 0
}

// TraversalLimitError is the typed failure of a non-lenient query whose
// traversal hit a defense limit (per-origin budget, scope, fanout, queue
// cap, oversized or slow-loris document); match it with errors.As on
// Result.Err. Lenient queries contain the trip instead and report it in
// Result.Degradation().LimitTrips.
type TraversalLimitError struct {
	Trip metrics.LimitTrip
}

// Error implements error.
func (e *TraversalLimitError) Error() string {
	return fmt.Sprintf("ltqp: traversal limit %s", e.Trip)
}

// limitGuard enforces TraversalLimits for one traversal. It tracks per-origin
// document/byte/in-flight accounting, evaluates the scope allowlist, and
// deduplicates trip reporting (each (kind, subject) pair is reported once,
// or every link out of a bombed document would flood the event stream).
type limitGuard struct {
	limits      TraversalLimits
	seedOrigins map[string]bool
	allow       []string // normalized allowlist prefixes

	mu       sync.Mutex
	docs     map[string]int
	bytes    map[string]int64
	inflight map[string]chan struct{}
	reported map[string]bool
}

// newLimitGuard builds the guard; nil when no defense is configured, and
// every method no-ops on a nil receiver.
func newLimitGuard(limits TraversalLimits, seeds []string) *limitGuard {
	if !limits.Enabled() {
		return nil
	}
	g := &limitGuard{
		limits:      limits,
		seedOrigins: map[string]bool{},
		docs:        map[string]int{},
		bytes:       map[string]int64{},
		inflight:    map[string]chan struct{}{},
		reported:    map[string]bool{},
	}
	for _, s := range seeds {
		g.seedOrigins[linkqueue.Origin(s)] = true
	}
	for _, p := range limits.Allowlist {
		g.allow = append(g.allow, linkqueue.Normalize(p))
	}
	return g
}

// inScope reports whether a link URL is inside the traversal allowlist.
// With no allowlist and no seed scoping, everything is in scope.
func (g *limitGuard) inScope(url string) bool {
	if g == nil || (len(g.allow) == 0 && !g.limits.ScopeToSeeds) {
		return true
	}
	n := linkqueue.Normalize(url)
	if g.limits.ScopeToSeeds && g.seedOrigins[linkqueue.Origin(url)] {
		return true
	}
	for _, p := range g.allow {
		if len(n) >= len(p) && n[:len(p)] == p {
			return true
		}
	}
	return false
}

// record registers a trip, deduplicated on (kind, subject): the first
// occurrence is returned for reporting, repeats return nil.
func (g *limitGuard) record(kind, origin, url string, limit, observed int64) *metrics.LimitTrip {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	key := kind + "\x00" + origin
	if origin == "" {
		key = kind + "\x00" + url
	}
	if g.reported[key] {
		return nil
	}
	g.reported[key] = true
	t := metrics.LimitTrip{Kind: kind, Origin: origin, URL: url, Limit: limit, Observed: observed}
	return &t
}

// admitFetch checks an origin's document and byte budgets before a fetch is
// dispatched. Admitted fetches are counted immediately (so concurrent
// workers cannot jointly overshoot); a refusal returns the trip to report
// (nil if this origin's refusal was already reported).
func (g *limitGuard) admitFetch(url string) (ok bool, trip *metrics.LimitTrip) {
	if g == nil {
		return true, nil
	}
	origin := linkqueue.Origin(url)
	g.mu.Lock()
	if g.limits.MaxDocsPerOrigin > 0 && g.docs[origin] >= g.limits.MaxDocsPerOrigin {
		observed := int64(g.docs[origin] + 1)
		g.mu.Unlock()
		return false, g.record(limitDocsPerOrigin, origin, url, int64(g.limits.MaxDocsPerOrigin), observed)
	}
	if g.limits.MaxBytesPerOrigin > 0 && g.bytes[origin] >= g.limits.MaxBytesPerOrigin {
		observed := g.bytes[origin]
		g.mu.Unlock()
		return false, g.record(limitBytesPerOrigin, origin, url, g.limits.MaxBytesPerOrigin, observed)
	}
	g.docs[origin]++
	g.mu.Unlock()
	return true, nil
}

// addBytes accounts a fetched document's body against its origin budget.
func (g *limitGuard) addBytes(url string, n int64) {
	if g == nil || g.limits.MaxBytesPerOrigin <= 0 {
		return
	}
	origin := linkqueue.Origin(url)
	g.mu.Lock()
	g.bytes[origin] += n
	g.mu.Unlock()
}

// originSlot returns the in-flight semaphore of a URL's origin (nil when
// per-origin concurrency is unbounded).
func (g *limitGuard) originSlot(url string) chan struct{} {
	if g == nil || g.limits.MaxInFlightPerOrigin <= 0 {
		return nil
	}
	origin := linkqueue.Origin(url)
	g.mu.Lock()
	defer g.mu.Unlock()
	sem, ok := g.inflight[origin]
	if !ok {
		sem = make(chan struct{}, g.limits.MaxInFlightPerOrigin)
		g.inflight[origin] = sem
	}
	return sem
}

// fate decides what becomes of link l — found in document l.Via, which was
// requested as requested and has had accepted links followed so far — and
// pushes it when nothing stands in the way. Everything that can reject a
// discovered link is a case here, in order of precedence; a rejection that
// is a defense firing also returns its trip (nil when already reported).
func (t *traversal) fate(l linkqueue.Link, requested string, accepted int) (string, *metrics.LimitTrip) {
	lim := t.e.cfg.Limits
	switch {
	case l.URL == l.Via || l.URL == requested:
		return obs.EdgeSelf, nil
	case t.e.cfg.MaxDepth > 0 && l.Depth > t.e.cfg.MaxDepth:
		return obs.EdgeDepthPruned, nil
	case !t.guard.inScope(l.URL):
		return obs.EdgeScopePruned, t.guard.record(limitScope, linkqueue.Origin(l.URL), l.URL, 0, 0)
	case lim.MaxLinksPerDoc > 0 && accepted >= lim.MaxLinksPerDoc:
		return obs.FateFanoutPruned, t.guard.record(limitFanout, "", l.Via,
			int64(lim.MaxLinksPerDoc), int64(accepted+1))
	case lim.MaxQueuedLinks > 0 && t.queue.Seen() >= lim.MaxQueuedLinks:
		// Dedup on a fixed subject: the cap is global to the traversal, one
		// report covers every pruned link.
		return obs.FateQueueCapPruned, t.guard.record(limitQueueCap, "traversal", l.URL,
			int64(lim.MaxQueuedLinks), int64(t.queue.Seen()+1))
	case t.push(l):
		return obs.EdgeFollowed, nil
	default:
		return obs.EdgeDuplicate, nil
	}
}

// settle reports a link's fate, and the defense trip that came with it. It
// is the one place a link not followed is reported (push announces the
// followed ones).
func (t *traversal) settle(l linkqueue.Link, fate string, trip *metrics.LimitTrip) {
	if fate != obs.EdgeFollowed {
		t.events.Emit(obs.Event{Kind: obs.EventLinkPruned, URL: l.URL, Via: l.Via,
			Extractor: l.Extractor, Reason: l.Reason, Depth: l.Depth, Detail: fate})
	}
	t.tripped(trip)
}

// tripped reports one deduplicated defense firing as its limit_tripped
// event, which the degradation report and the process-wide trip counter
// fold. Non-lenient traversals also fail with the typed error.
func (t *traversal) tripped(trip *metrics.LimitTrip) {
	if trip == nil {
		return
	}
	t.events.Emit(obs.Event{Kind: obs.EventLimitTripped, URL: trip.URL, Reason: trip.Kind,
		Origin: trip.Origin, Limit: trip.Limit, Observed: trip.Observed, Detail: trip.String()})
	t.fail(&TraversalLimitError{Trip: *trip})
}
