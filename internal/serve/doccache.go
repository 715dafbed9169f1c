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
//     validators (post-bump accesses revalidate instead of refetching).
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

	hits, misses, revalidations, notModified, evictions, dedups atomic.Int64
	// duplicateInflight counts violations of the singleflight invariant
	// (two live fetches for one key). It is structurally impossible and
	// asserted at runtime so load harnesses can prove it stayed zero.
	duplicateInflight atomic.Int64
}

// sharedEntry is one cached document.
type sharedEntry struct {
	key     string
	res     *deref.Result
	fetched time.Time // when the entry was fetched or last revalidated
	epoch   uint64    // invalidation epoch the entry is valid for
	// cost is the body size: the budget's proxy for what the entry retains
	// (parsed triples plus a segment of at most about as much again).
	cost int64
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

// Dereference implements deref.SharedCache: serve key from cache when
// fresh, revalidate stale entries with a conditional fetch, collapse
// concurrent fetches of the same key into one, and account everything.
func (c *SharedCache) Dereference(ctx context.Context, key, url string, fetch deref.FetchFunc) (*deref.Result, bool, error) {
	for {
		epoch := c.epoch.Load()
		now := c.now()

		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*sharedEntry)
			// A negative TTL is never met: every access revalidates.
			if e.epoch == epoch && now.Sub(e.fetched) <= c.ttl {
				c.lru.MoveToFront(el)
				res := e.res
				c.mu.Unlock()
				c.hits.Add(1)
				obs.On(c.obs).SharedCacheHits.Inc()
				if c.events.Active() {
					c.events.Publish(obs.Event{Kind: obs.EventCacheHit, URL: url,
						Query: obs.QueryIDFromContext(ctx)})
				}
				return res, true, nil
			}
			// Stale (TTL elapsed or epoch bumped): fall through to a
			// singleflight revalidation.
		}
		c.mu.Unlock()

		res, shared, err := c.do(ctx, key, func() (*deref.Result, error) {
			return c.refresh(ctx, key, url, fetch, epoch)
		})
		if err != nil {
			// A follower whose leader was cancelled retries as its own
			// leader: its query may still be alive.
			if shared && ctx.Err() == nil && isContextErr(err) {
				continue
			}
			return nil, false, err
		}
		return res, shared, nil
	}
}

// refresh is the singleflight leader's work: fetch or revalidate key and
// update the cache. Called with no locks held.
func (c *SharedCache) refresh(ctx context.Context, key, url string, fetch deref.FetchFunc, epoch uint64) (*deref.Result, error) {
	var vals deref.Validators
	var stale *deref.Result
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*sharedEntry)
		vals = e.res.Validators
		stale = e.res
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
		// The stale entry survives: a later request retries the
		// revalidation, and a bumped epoch still invalidates it.
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
			c.insertLocked(key, stale, now)
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
	c.insertLocked(key, res, now)
	c.mu.Unlock()
	c.publishGauges()
	if stale != nil && c.events.Active() {
		c.events.Publish(obs.Event{Kind: obs.EventCacheRevalidated, URL: url,
			Status: res.Status, Query: obs.QueryIDFromContext(ctx)})
	}
	return res, nil
}

// insertLocked stores res under key and evicts LRU entries past the byte
// budget. Caller holds c.mu.
func (c *SharedCache) insertLocked(key string, res *deref.Result, now time.Time) {
	cost := res.Bytes
	if cost < 1 {
		cost = 1
	}
	if cost > c.maxBytes {
		return // a document larger than the whole budget is never cached
	}
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*sharedEntry)
		c.bytes -= old.cost
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &sharedEntry{key: key, res: res, fetched: now, epoch: c.epoch.Load(), cost: cost}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += cost
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		last := c.lru.Back()
		victim := last.Value.(*sharedEntry)
		c.lru.Remove(last)
		delete(c.entries, victim.key)
		c.bytes -= victim.cost
		c.evictions.Add(1)
		obs.On(c.obs).SharedCacheEvictions.Inc()
		if c.events.Active() {
			c.events.Publish(obs.Event{Kind: obs.EventCacheEvicted, URL: victim.res.URL,
				Bytes: victim.cost})
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
	Hits          int64  `json:"hits"`
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
