package deref

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU document cache shared across queries of one
// engine. The paper's demo runs in a browser whose HTTP disk cache serves
// repeated document fetches (the "(disk cache)" entries in Fig. 4's
// waterfall); this reproduces that behaviour for repeated queries over the
// same pods.
//
// Entries are keyed by document URL *and* the requesting agent's WebID:
// access-controlled documents must never leak across identities.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent

	hits, misses int
}

// cached is one entry: the Result, shared read-only with all consumers,
// under its identity-scoped key.
type cached struct {
	key string
	res *Result
}

// NewCache returns a cache bounded to capacity documents (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, entries: map[string]*list.Element{}, lru: list.New()}
}

// cacheKey builds the identity-scoped key.
func cacheKey(url string, auth *Credentials) string {
	if auth == nil {
		return url
	}
	return url + "\x00" + auth.WebID
}

// get returns a cached dereference.
func (c *Cache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cached).res, true
}

// put stores a dereference, evicting the least recently used entry when
// over capacity.
func (c *Cache) put(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cached{key: key, res: res}
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		el.Value = e
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cached).key)
	}
}

// Len returns the number of cached documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns hit/miss counters.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
