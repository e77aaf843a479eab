// This file is the meshd result cache: completed response bodies keyed by
// the canonical spec key plus the response format (the cacheability
// contract of the package comment; the cache tests pin through the pool
// counters that a hit touches no engine). Only complete, successful bodies
// are stored, so a hit can never replay a truncation. Each entry also
// remembers the digest of the last exact request that resolved to it, so a
// repeat of those bytes finds the body without being decoded.

package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
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

// requestDigest is the SHA-256 of one exact request: its raw query and
// body (see digestRequest).
type requestDigest [sha256.Size]byte

// digestRequest digests the query, length-prefixed so that no query/body
// split of the same bytes collides, then the body.
func digestRequest(query string, body []byte) requestDigest {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(query)))
	h.Write(n[:])
	h.Write([]byte(query))
	h.Write(body)
	var d requestDigest
	h.Sum(d[:0])
	return d
}

// short is the first 8 bytes of d, the requests map's key.
func (d requestDigest) short() uint64 { return binary.LittleEndian.Uint64(d[:]) }

// hit is what a cache hit serves: the stored body plus the spec's kind,
// cell count and format, which a digest hit has no spec to read them from.
// Lookups return it by value, copied under the cache mutex.
type hit struct {
	body  []byte
	kind  *kind
	cells int
	csv   bool
}

// resultCache is a mutex-guarded LRU over response bodies, bounded by
// entry count and total byte size. requests maps each entry's remembered
// request digest to it; a record leaves with its entry or when the entry
// names a newer digest, so len(requests) <= len(entries). It is keyed by
// the digest's first 8 bytes (half the memory of whole-digest keys) and
// lookup compares the whole digest on the entry, so two digests sharing
// those bytes cost a digest miss, never another request's body.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int
	bytes      int
	order      *list.List // front = most recent; values are *cacheEntry
	entries    map[string]*list.Element
	requests   map[uint64]*list.Element
	stats      CacheStats
}

// cacheEntry is one stored body. req is the digest of the last exact
// request named on it (see name); it is live only while requests maps it
// back to this entry.
type cacheEntry struct {
	key string
	req requestDigest
	hit
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
		requests:   make(map[uint64]*list.Element),
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

// lookup returns the hit of the entry whose remembered request digest is
// req. A digest miss counts nothing: the request goes on to get, which
// counts it.
func (c *resultCache) lookup(req requestDigest) (hit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.requests[req.short()]
	if !ok || el.Value.(*cacheEntry).req != req {
		return hit{}, false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*cacheEntry).hit, true
}

// name records that the exact request req resolved to key's entry, with
// h's kind, cell count and format; the entry's earlier digest, if any, is
// forgotten. A key with no entry (evicted meanwhile, or never stored) names
// nothing.
func (c *resultCache) name(key string, req requestDigest, h hit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.forget(el)
	ent.req, ent.kind, ent.cells, ent.csv = req, h.kind, h.cells, h.csv
	c.requests[req.short()] = el
}

// forget drops the request record naming el, if it still does.
func (c *resultCache) forget(el *list.Element) {
	short := el.Value.(*cacheEntry).req.short()
	if c.requests[short] == el {
		delete(c.requests, short)
	}
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
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, hit: hit{body: body}})
	c.bytes += len(body)
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.order.Back()
		ent := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, ent.key)
		c.forget(el)
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
