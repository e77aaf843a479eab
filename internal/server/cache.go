// This file is the meshd result cache: completed response bodies keyed by
// the canonical spec key plus the response format (the cacheability
// contract of the package comment; the cache tests pin through the pool
// counters that a hit touches no engine). Only complete, successful bodies
// are stored, so a hit can never replay a truncation.

package server

import (
	"container/list"
	"sync"
)

// CacheStats counts the result cache's traffic for /debug/census.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes"`
}

// resultCache is a mutex-guarded LRU over response bodies, bounded by
// entry count and total byte size.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int
	bytes      int
	order      *list.List // front = most recent; values are *cacheEntry
	entries    map[string]*list.Element
	stats      CacheStats
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache builds an LRU bounded to maxEntries bodies and maxBytes
// total; either bound <= 0 disables the cache entirely (every lookup
// misses, nothing is stored).
func newResultCache(maxEntries, maxBytes int) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
	}
}

func (c *resultCache) enabled() bool { return c.maxEntries > 0 && c.maxBytes > 0 }

// get returns the cached body for key, or nil. The caller must not
// mutate the returned slice (it is shared across hits).
func (c *resultCache) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*cacheEntry).body
}

// put stores a complete body under key, evicting least-recently-used
// entries to fit. Bodies larger than the byte bound are not stored.
func (c *resultCache) put(key string, body []byte) {
	if !c.enabled() || len(body) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Deterministic results: an overwrite carries identical bytes, so
		// keep the existing entry (and its LRU position).
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += len(body)
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.order.Back()
		ent := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, ent.key)
		c.bytes -= len(ent.body)
		c.stats.Evictions++
	}
}

// Stats snapshots the cache counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	s.Bytes = c.bytes
	return s
}
