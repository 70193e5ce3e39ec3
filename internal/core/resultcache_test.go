package core

import (
	"fmt"
	"testing"
	"unsafe"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
)

func cacheKey(rel, version string, k aggregate.Kind, w interval.Interval) CacheKey {
	return CacheKey{Relation: rel, Version: version, Kind: k, Window: w}
}

func cachedResult(v int64) *Result {
	f := aggregate.For(aggregate.Sum)
	return &Result{Func: f, Rows: []Row{{Interval: interval.Universe(), State: f.Add(f.Zero(), v)}}}
}

// TestResultCacheHitMiss pins the basic contract: a miss before Put, a hit
// after, and stats counting both.
func TestResultCacheHitMiss(t *testing.T) {
	c := NewResultCache(4)
	key := cacheKey("r", "v1", aggregate.Sum, interval.Universe())
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, cachedResult(7))
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !got.Equal(cachedResult(7)) {
		t.Fatal("cached result differs")
	}
	// A different version of the same relation is a different key: stale
	// entries are structurally unreachable.
	if _, ok := c.Get(cacheKey("r", "v2", aggregate.Sum, interval.Universe())); ok {
		t.Fatal("version change must miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 1 entry", s)
	}
}

// TestResultCacheLRU fills past capacity and checks the eviction order:
// least-recently-used leaves first, and a Get refreshes recency.
func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(3)
	keys := make([]CacheKey, 5)
	for i := range keys {
		keys[i] = cacheKey(fmt.Sprintf("r%d", i), "v", aggregate.Count, interval.Universe())
	}
	for i := 0; i < 3; i++ {
		c.Put(keys[i], cachedResult(int64(i)))
	}
	// Touch key 0 so key 1 is now the LRU entry.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("resident entry missed")
	}
	if ev := c.Put(keys[3], cachedResult(3)); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if ev := c.Put(keys[4], cachedResult(4)); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	s := c.Stats()
	if s.Entries != 3 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 entries, 2 evictions", s)
	}
}

// TestResultCacheIsolation pins copy semantics both ways: mutating the
// caller's result after Put, or the returned result after Get, must not
// disturb the cached rows.
func TestResultCacheIsolation(t *testing.T) {
	c := NewResultCache(2)
	key := cacheKey("r", "v", aggregate.Sum, interval.Universe())
	orig := cachedResult(1)
	c.Put(key, orig)
	orig.Rows[0].State = orig.Func.Add(orig.Rows[0].State, 100)

	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss")
	}
	if !got.Equal(cachedResult(1)) {
		t.Fatal("Put did not copy: caller mutation leaked into the cache")
	}
	got.Clip(interval.MustNew(5, 9))

	again, ok := c.Get(key)
	if !ok {
		t.Fatal("miss")
	}
	if !again.Equal(cachedResult(1)) {
		t.Fatal("Get did not copy: caller mutation leaked into the cache")
	}
}

// TestResultCacheClose pins the terminal contract: Close is idempotent and
// later operations are inert.
func TestResultCacheClose(t *testing.T) {
	c := NewResultCache(2)
	key := cacheKey("r", "v", aggregate.Avg, interval.Universe())
	c.Put(key, cachedResult(1))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The idempotent re-Close and the post-Close probes run in their own
	// closures: finishonce tracks one function body at a time, and these are
	// deliberate contract violations, not bugs to silence with an ignore.
	func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	func() {
		if _, ok := c.Get(key); ok {
			t.Fatal("hit after Close")
		}
		if ev := c.Put(key, cachedResult(2)); ev != 0 {
			t.Fatal("Put evicted after Close")
		}
		if s := c.Stats(); s.Entries != 0 {
			t.Fatalf("entries after Close: %d", s.Entries)
		}
	}()
}

// TestResultCacheCapacityFloor: a non-positive capacity falls back to the
// default rather than caching nothing.
func TestResultCacheCapacityFloor(t *testing.T) {
	c := NewResultCache(0)
	key := cacheKey("r", "v", aggregate.Min, interval.Universe())
	c.Put(key, cachedResult(3))
	if _, ok := c.Get(key); !ok {
		t.Fatal("default-capacity cache dropped its first entry")
	}
}

// TestResultCacheByteBound hits the byte bound: a result heavier than
// maxCacheBytes is never admitted, and mid-size results evict the
// least-recently-used ones once their rows pass it — well before the
// default entry bound.
func TestResultCacheByteBound(t *testing.T) {
	rowBytes := int64(unsafe.Sizeof(Row{}))
	key := func(i int) CacheKey {
		return cacheKey(fmt.Sprintf("r%d", i), "v", aggregate.Count, interval.Universe())
	}
	c := NewResultCache(0)
	oversize := &Result{Func: aggregate.For(aggregate.Count), Rows: make([]Row, maxCacheBytes/rowBytes+1)}
	if ev := c.Put(key(-1), oversize); ev != 0 {
		t.Fatalf("oversize Put evicted %d", ev)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversize result admitted: %+v", s)
	}
	// Four 16 MiB results fill the 64 MiB bound; each further one evicts.
	mid := &Result{Func: aggregate.For(aggregate.Count), Rows: make([]Row, (16<<20)/rowBytes)}
	evicted := 0
	for i := 0; i < 10; i++ {
		evicted += c.Put(key(i), mid)
	}
	s := c.Stats()
	if want := 4 * resultBytes(mid); s.Entries != 4 || s.Bytes != want || s.Bytes > maxCacheBytes {
		t.Fatalf("stats %+v, want 4 entries holding %d bytes", s, want)
	}
	if evicted != 6 || s.Evictions != 6 {
		t.Fatalf("evicted %d (stats %d), want 6", evicted, s.Evictions)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(key(i)); ok != (i >= 6) {
			t.Errorf("key %d resident = %v, want the four most recent", i, ok)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Bytes != 0 {
		t.Fatalf("closed cache holds %d bytes", s.Bytes)
	}
}
