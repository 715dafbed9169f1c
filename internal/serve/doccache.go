// Package serve is the multi-tenant serving subsystem: the pieces that make
// one engine process safely shareable by thousands of concurrent clients.
//
//   - SharedCache: a cross-query (and cross-engine) document cache layered
//     under internal/deref. Entries hold the *deref.Result of a dereferenced
//     document — its parsed triples, its pre-encoded segment (ID triples and
//     link table) and its HTTP cache validators; fresh entries are served
//     without a network request, stale entries revalidate with a conditional
//     GET (a 304 keeps the cached Result, segment included), the whole cache
//     is bounded by a byte budget with LRU eviction,
//     and an epoch counter invalidates everything at once without dropping
//     validators (post-bump accesses revalidate instead of refetching). A
//     document the origin says does not exist (404/410) is an entry too — a
//     negative one, holding the error — so a dead link costs one request per
//     TTL, not one per query.
//   - Singleflight dereference dedup, built into SharedCache: N concurrent
//     queries dereferencing the same IRI issue exactly one upstream fetch
//     and share the parsed document.
//   - Admission: a bounded query queue with per-tenant concurrency quotas,
//     round-robin fairness across waiting tenants, and 429 + Retry-After
//     rejections on overload.
//   - ResultCache: completed query results keyed on (normalized query,
//     seeds, cache epoch), so repeated identical queries skip traversal
//     entirely until the document cache is invalidated.
//
// The dereference cost of link traversal dominates end-to-end latency, so a
// shared cache plus singleflight converts a thousand clients re-traversing
// the same pods from a thousand fetch storms into one.
package serve

import (
	"container/list"
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ltqp/internal/deref"
	"ltqp/internal/obs"
)

// DefaultMaxBytes is the default shared-cache byte budget (64 MiB).
const DefaultMaxBytes = 64 << 20

// DefaultTTL is the default freshness lifetime: entries younger than this
// are served without revalidation, older ones issue a conditional GET.
const DefaultTTL = time.Minute

// SharedCacheOptions configures a SharedCache.
type SharedCacheOptions struct {
	// MaxBytes bounds the total body bytes of cached documents (default
	// DefaultMaxBytes). Documents larger than the budget are never cached.
	MaxBytes int64
	// TTL is the freshness lifetime before an entry must revalidate
	// (default DefaultTTL; negative means every access revalidates).
	TTL time.Duration
	// Obs, when non-nil, receives the shared-cache counters and occupancy
	// gauges (ltqp_shared_cache_*, ltqp_singleflight_dedup_total).
	Obs *obs.Metrics
	// Events, when non-nil, receives cache_hit / cache_revalidated /
	// cache_evicted events, stamped with the requesting query's id.
	Events *obs.Bus

	// now is a test hook for the freshness clock.
	now func() time.Time
}

// SharedCache is a byte-bounded, revalidating, singleflight-deduplicating
// document cache shared across all queries (and engines) of one process.
// It implements deref.SharedCache; set it on deref.Dereferencer.Shared (or
// core.Options.Shared / ltqp.Config.SharedCache) to layer it under the
// dereferencer. Safe for concurrent use.
type SharedCache struct {
	maxBytes int64
	ttl      time.Duration
	obs      *obs.Metrics
	events   *obs.Bus
	now      func() time.Time

	epoch atomic.Uint64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*flight

	// hits counts documents served; a negative entry served counts in
	// negativeHits only.
	hits, negativeHits, misses, revalidations, notModified, evictions, dedups atomic.Int64
	// duplicateInflight counts violations of the singleflight invariant
	// (two live fetches for one key). It is structurally impossible and
	// asserted at runtime so load harnesses can prove it stayed zero.
	duplicateInflight atomic.Int64
}

// sharedEntry is one cached document, or (negative) the cached absence of one.
type sharedEntry struct {
	key, url string
	// Exactly one of res and gone is set: the document, or the terminal
	// 404/410 the origin answered in its place.
	res     *deref.Result
	gone    *deref.Error
	fetched time.Time // when the entry was fetched or last revalidated
	epoch   uint64    // invalidation epoch the entry is valid for
	// cost is the body size: the budget's proxy for what the entry retains
	// (parsed triples plus a segment of at most about as much again);
	// negativeCost for a negative entry.
	cost int64
}

// negativeCost is what a negative entry counts against the byte budget:
// about what its key, error and bookkeeping retain, and not zero, so dead
// links are held to the budget like documents are: a pod minting them fills
// no more of the cache than the same bytes of documents would.
const negativeCost = 256

// gone returns err as the error a negative entry holds, nil if err is not
// one: only the origin's plain answer that the document does not exist is
// kept. Refusals (401/403), rate limits, server and transport failures and
// unreadable bodies or documents say nothing about the next request.
func gone(err error) *deref.Error {
	var de *deref.Error
	if errors.As(err, &de) && de.Err == nil && !de.Retryable &&
		(de.Status == http.StatusNotFound || de.Status == http.StatusGone) {
		return de
	}
	return nil
}

// NewSharedCache builds a shared document cache.
func NewSharedCache(o SharedCacheOptions) *SharedCache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.TTL == 0 {
		o.TTL = DefaultTTL
	}
	if o.now == nil {
		o.now = time.Now
	}
	return &SharedCache{
		maxBytes: o.MaxBytes,
		ttl:      o.TTL,
		obs:      o.Obs,
		events:   o.Events,
		now:      o.now,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		flights:  map[string]*flight{},
	}
}

// Lookup implements deref.SharedCache: answer key from a fresh entry, the
// document or, from a negative entry, the error kept in its place. hit is
// false when there is no entry or it is stale (TTL elapsed or epoch bumped).
func (c *SharedCache) Lookup(ctx context.Context, key, url string) (res *deref.Result, hit bool, err error) {
	epoch, now := c.epoch.Load(), c.now()
	c.mu.Lock()
	el, ok := c.entries[key]
	var e *sharedEntry
	if ok {
		e = el.Value.(*sharedEntry)
	}
	// A negative TTL is never met: every access revalidates.
	if e == nil || e.epoch != epoch || now.Sub(e.fetched) > c.ttl {
		c.mu.Unlock()
		return nil, false, nil
	}
	c.lru.MoveToFront(el)
	res, neg := e.res, e.gone
	c.mu.Unlock()
	status := 0 // of a negative hit, in its cache_hit event
	if neg != nil {
		c.negativeHits.Add(1)
		obs.On(c.obs).SharedCacheNegativeHits.Inc()
		status, err = neg.Status, neg
	} else {
		c.hits.Add(1)
		obs.On(c.obs).SharedCacheHits.Inc()
	}
	if c.events.Active() {
		c.events.Publish(obs.Event{Kind: obs.EventCacheHit, URL: url, Status: status,
			Query: obs.QueryIDFromContext(ctx)})
	}
	return res, true, err
}

// Dereference implements deref.SharedCache: serve key from cache when
// fresh, revalidate stale entries with a conditional fetch, collapse
// concurrent fetches of the same key into one, and account everything. An
// error comes with hit set when it is a negative entry's, served from the
// cache or shared from the flight that stored it.
func (c *SharedCache) Dereference(ctx context.Context, key, url string, fetch deref.FetchFunc) (*deref.Result, bool, error) {
	for {
		if res, hit, err := c.Lookup(ctx, key, url); hit {
			return res, true, err
		}
		res, shared, err := c.do(ctx, key, func() (*deref.Result, error) {
			return c.refresh(ctx, key, url, fetch)
		})
		if err != nil {
			// A follower whose leader was cancelled retries as its own
			// leader: its query may still be alive.
			if shared && ctx.Err() == nil && isContextErr(err) {
				continue
			}
			return nil, shared && gone(err) != nil, err
		}
		return res, shared, nil
	}
}

// refresh is the singleflight leader's work: fetch or revalidate key and
// update the cache. Called with no locks held.
func (c *SharedCache) refresh(ctx context.Context, key, url string, fetch deref.FetchFunc) (*deref.Result, error) {
	// A stale negative entry has nothing to revalidate: it is fetched in
	// full, like a key never seen.
	var vals deref.Validators
	var stale *deref.Result
	c.mu.Lock()
	if el, ok := c.entries[key]; ok && el.Value.(*sharedEntry).res != nil {
		stale = el.Value.(*sharedEntry).res
		vals = stale.Validators
	}
	c.mu.Unlock()

	if stale == nil {
		c.misses.Add(1)
		obs.On(c.obs).SharedCacheMisses.Inc()
	} else {
		c.revalidations.Add(1)
		obs.On(c.obs).SharedCacheRevalidations.Inc()
	}

	res, err := fetch(ctx, vals)
	if err != nil {
		// The origin's word that the document does not exist replaces
		// whatever the key held. Any other failure leaves a stale entry be:
		// a later request retries the revalidation, and a bumped epoch still
		// invalidates it.
		if neg := gone(err); neg != nil {
			c.mu.Lock()
			c.insertLocked(&sharedEntry{key: key, url: url, gone: neg, cost: negativeCost}, c.now())
			c.mu.Unlock()
			c.publishGauges()
		}
		return nil, err
	}

	now := c.now()
	if res.NotModified && stale != nil {
		// The cached parse is still current: refresh its lease.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*sharedEntry)
			e.fetched = now
			e.epoch = c.epoch.Load()
			c.lru.MoveToFront(el)
		} else {
			// Evicted while we revalidated: reinstate the stale parse.
			c.insertLocked(&sharedEntry{key: key, url: url, res: stale, cost: stale.Bytes}, now)
		}
		c.mu.Unlock()
		c.notModified.Add(1)
		obs.On(c.obs).SharedCacheNotModified.Inc()
		c.publishGauges()
		if c.events.Active() {
			c.events.Publish(obs.Event{Kind: obs.EventCacheRevalidated, URL: url,
				Status: 304, Query: obs.QueryIDFromContext(ctx)})
		}
		return stale, nil
	}

	c.mu.Lock()
	c.insertLocked(&sharedEntry{key: key, url: url, res: res, cost: res.Bytes}, now)
	c.mu.Unlock()
	c.publishGauges()
	if stale != nil && c.events.Active() {
		c.events.Publish(obs.Event{Kind: obs.EventCacheRevalidated, URL: url,
			Status: res.Status, Query: obs.QueryIDFromContext(ctx)})
	}
	return res, nil
}

// insertLocked stores e, fetched now, in place of whatever its key held and
// evicts LRU entries past the byte budget. Caller holds c.mu.
func (c *SharedCache) insertLocked(e *sharedEntry, now time.Time) {
	e.cost = max(e.cost, 1)
	if e.cost > c.maxBytes {
		return // a document larger than the whole budget is never cached
	}
	if el, ok := c.entries[e.key]; ok {
		c.bytes -= el.Value.(*sharedEntry).cost
		c.lru.Remove(el)
		delete(c.entries, e.key)
	}
	e.fetched, e.epoch = now, c.epoch.Load()
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.cost
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		last := c.lru.Back()
		victim := last.Value.(*sharedEntry)
		c.lru.Remove(last)
		delete(c.entries, victim.key)
		c.bytes -= victim.cost
		c.evictions.Add(1)
		obs.On(c.obs).SharedCacheEvictions.Inc()
		if c.events.Active() {
			c.events.Publish(obs.Event{Kind: obs.EventCacheEvicted, URL: victim.url, Bytes: victim.cost})
		}
	}
}

// publishGauges refreshes the occupancy gauges.
func (c *SharedCache) publishGauges() {
	if c.obs == nil {
		return
	}
	c.mu.Lock()
	bytes, docs := c.bytes, c.lru.Len()
	c.mu.Unlock()
	c.obs.SharedCacheBytes.Set(bytes)
	c.obs.SharedCacheDocuments.Set(int64(docs))
}

// Invalidate bumps the cache epoch: every entry becomes stale at once and
// must revalidate (cheap 304s for unchanged documents) before being served
// again, and result caches keyed on the epoch miss. Returns the new epoch.
func (c *SharedCache) Invalidate() uint64 {
	return c.epoch.Add(1)
}

// Epoch returns the current invalidation epoch (0 until first Invalidate).
// Result caches include it in their keys so epoch bumps invalidate them too.
func (c *SharedCache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Len returns the number of cached documents.
func (c *SharedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the cache's current byte occupancy.
func (c *SharedCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CacheStats is a point-in-time snapshot of the shared cache's counters.
type CacheStats struct {
	Hits int64 `json:"hits"`
	// NegativeHits counts dereferences answered from a negative entry: the
	// cached 404/410 of a document that does not exist. Not part of Hits.
	NegativeHits  int64  `json:"negative_hits"`
	Misses        int64  `json:"misses"`
	Revalidations int64  `json:"revalidations"`
	NotModified   int64  `json:"not_modified"`
	Evictions     int64  `json:"evictions"`
	Dedups        int64  `json:"dedups"`
	Bytes         int64  `json:"bytes"`
	Documents     int    `json:"documents"`
	Epoch         uint64 `json:"epoch"`
	// DuplicateInflight counts singleflight invariant violations (two live
	// upstream fetches for one key). Always 0; load harnesses assert it.
	DuplicateInflight int64 `json:"duplicate_inflight"`
}

// HitRatio is hits / (hits + misses), 0 when idle.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the cache counters.
func (c *SharedCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	bytes, docs := c.bytes, c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:              c.hits.Load(),
		NegativeHits:      c.negativeHits.Load(),
		Misses:            c.misses.Load(),
		Revalidations:     c.revalidations.Load(),
		NotModified:       c.notModified.Load(),
		Evictions:         c.evictions.Load(),
		Dedups:            c.dedups.Load(),
		Bytes:             bytes,
		Documents:         docs,
		Epoch:             c.epoch.Load(),
		DuplicateInflight: c.duplicateInflight.Load(),
	}
}
