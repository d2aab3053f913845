package svc

import "sync"

// lruCache is a bounded, thread-safe LRU keyed by content-address
// strings. Every cache tier uses it: the analysis and compile tiers hold
// *core.Compiled and the result tier holds marshaled core.RunResult
// bytes. Entries are immutable once inserted (the content address
// guarantees a key never maps to two different values), so Get can hand
// out the stored value without copying.
type lruCache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*lruEntry[V]
	// Intrusive doubly-linked recency list; head is most recent.
	head, tail *lruEntry[V]
	hits       int64
	misses     int64
	evictions  int64
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// newLRU builds a cache bounded to capacity entries (minimum 1).
func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{capacity: capacity, entries: make(map[string]*lruEntry[V])}
}

// Get returns the value for key and refreshes its recency.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

// Peek returns the value for key, refreshing its recency but NOT the
// hit/miss counters. POST /v1/cache answers the sweep coordinator's
// routing queries through it, so those queries cannot distort the
// tier's submission-path hit rate (tpiserved_cache_hits_total and
// tpiserved_cache_misses_total). The recency refresh keeps a key resident that is about
// to be routed here.
func (c *lruCache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// when the cache is full.
func (c *lruCache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = v // same content address ⇒ same value; refresh anyway
		c.moveToFront(e)
		return
	}
	e := &lruEntry[V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
}

// CacheStats is the metrics view of one tier.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
	Capacity  int
}

// Stats snapshots the hit/miss/eviction counters and occupancy.
func (c *lruCache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Size: len(c.entries), Capacity: c.capacity,
	}
}

func (c *lruCache[V]) pushFront(e *lruEntry[V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache[V]) moveToFront(e *lruEntry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
