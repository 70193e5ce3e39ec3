// ResultCache: an LRU, version-keyed cache of finished range-query
// results (DESIGN.md S37).
//
// Staleness is structural, not timed: the cache key carries the relation's
// version (the catalog uses the relation file's fingerprint), so a
// rewritten relation can never have a stale entry served. Superseded
// versions age out through the LRU.
package core

import (
	"container/list"
	"sync"
	"unsafe"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
)

// DefaultResultCacheCapacity is the entry bound a zero capacity resolves
// to: enough for a dashboard's worth of distinct (window, aggregate)
// panels across a handful of relation versions.
const DefaultResultCacheCapacity = 256

// maxCacheBytes bounds the rows a cache holds, each weighed at
// unsafe.Sizeof(Row{}): least-recently-used entries are evicted while the
// total exceeds it, and a larger result is never admitted. One unfiltered
// whole-history result over a 256K-tuple relation is ~16 MiB, so an entry
// bound alone would let 256 of them reach gigabytes.
const maxCacheBytes = 64 << 20

// CacheKey identifies one cached range-query answer.
type CacheKey struct {
	// Relation is the relation name.
	Relation string
	// Version pins the relation contents the entry was computed over (a
	// file fingerprint in the catalog). Any change of contents changes the
	// version, so stale entries are unreachable rather than merely expired.
	Version string
	// Kind is the aggregate computed.
	Kind aggregate.Kind
	// Distinct marks duplicate-eliminated input.
	Distinct bool
	// Window is the query's restriction: the VALID OVERLAPS window, or
	// [t, t] for an AT query.
	Window interval.Interval
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	// Bytes is the weight of the cached rows (see maxCacheBytes).
	Bytes int64
}

// ResultCache is an LRU over finished results, bounded in entries and in
// bytes. It is safe for concurrent use. Entries are stored and served by
// copy: callers may mutate what Get returns (Clip, Coalesce) without
// corrupting the cache.
// After Close the cache must not be used (tempagglint's finishonce
// analyzer enforces this like the evaluators' Finish contract).
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[CacheKey]*list.Element
	bytes   int64
	stats   CacheStats
	closed  bool
}

type cacheEntry struct {
	key CacheKey
	res *Result
}

// resultBytes weighs a result by its rows.
func resultBytes(res *Result) int64 {
	return int64(len(res.Rows)) * int64(unsafe.Sizeof(Row{}))
}

// NewResultCache returns a cache bounded to capacity entries; capacity
// ≤ 0 means DefaultResultCacheCapacity.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultResultCacheCapacity
	}
	return &ResultCache{
		cap:     capacity,
		order:   list.New(),
		entries: map[CacheKey]*list.Element{},
	}
}

// Get returns a copy of the entry for key, marking it most recently used.
// A miss (or a closed cache) returns false.
func (c *ResultCache) Get(key CacheKey) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	return &Result{Func: res.Func, Rows: append([]Row(nil), res.Rows...)}, true
}

// Put stores a copy of res under key, evicting least-recently-used
// entries beyond the entry or byte bound, and reports how many were
// evicted. Storing an existing key refreshes its value and recency; a
// result heavier than maxCacheBytes is not stored.
func (c *ResultCache) Put(key CacheKey, res *Result) (evicted int) {
	size := resultBytes(res)
	if size > maxCacheBytes {
		return 0
	}
	clone := &Result{Func: res.Func, Rows: append([]Row(nil), res.Rows...)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - resultBytes(e.res)
		e.res = clone
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: clone})
		c.bytes += size
	}
	for len(c.entries) > c.cap || c.bytes > maxCacheBytes {
		e := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, e.key)
		c.bytes -= resultBytes(e.res)
		evicted++
	}
	c.stats.Evictions += int64(evicted)
	return evicted
}

// Stats snapshots the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries, s.Bytes = len(c.entries), c.bytes
	return s
}

// Close empties the cache; subsequent Get and Put calls are inert misses.
// Close is idempotent.
func (c *ResultCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.order.Init()
	c.entries = map[CacheKey]*list.Element{}
	c.bytes = 0
	return nil
}
