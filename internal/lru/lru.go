// Package lru is the memoizing cache behind the service stack's two
// caches: the bytecode compile cache and the pipeline's profile cache. It
// pairs an LRU bound with per-entry singleflight, so concurrent misses on
// one key compute the value once.
package lru

import (
	"container/list"
	"sync"
)

// Cache memoizes values by key. Concurrent misses on one key coalesce
// through a per-entry sync.Once: the first caller computes, the rest block
// until the value is ready. Once the cache holds more than its cap, the
// least recently used completed entry is evicted. Entries still in flight
// are never evicted (callers are blocked on their once, and a second
// computation of one key could race with the first), so the cache may
// exceed its cap transiently by the number of in-flight computations.
// Eviction only forgets the memoization: callers already holding the value
// keep it, and a later request recomputes.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	max int // entry cap; 0 = unbounded
	m   map[K]*list.Element
	lru list.List // front = most recently used; values are *entry[K, V]

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key  K
	once sync.Once
	done bool // guarded by Cache.mu; set once the computation returned
	val  V
}

// New returns an empty cache evicting least-recently-used completed
// entries beyond max (0 = unbounded).
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, m: make(map[K]*list.Element)}
}

// Get returns the value for key, computing it with fill on first sight.
// The hit flag reports whether this call skipped fill.
func (c *Cache[K, V]) Get(key K, fill func() V) (val V, hit bool) {
	e := c.entry(key)
	hit = true
	e.once.Do(func() {
		hit = false
		e.val = fill()
	})
	c.mu.Lock()
	e.done = true
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return e.val, hit
}

// entry returns the entry for key, creating it (and evicting down to the
// cap) on first sight.
func (c *Cache[K, V]) entry(key K) *entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry[K, V])
	}
	e := &entry[K, V]{key: key}
	c.m[key] = c.lru.PushFront(e)
	for c.max > 0 && c.lru.Len() > c.max && c.evictOne() {
	}
	return e
}

// evictOne drops the least recently used completed entry, reporting
// whether there was one.
func (c *Cache[K, V]) evictOne() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[K, V])
		if !e.done {
			continue
		}
		delete(c.m, e.key)
		c.lru.Remove(el)
		c.evictions++
		return true
	}
	return false
}

// Stats returns the hit/miss counters and the live entry count.
func (c *Cache[K, V]) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// Evictions returns the number of entries dropped by the LRU bound.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
