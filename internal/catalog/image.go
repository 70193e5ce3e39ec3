// The relation-image cache: one decoded, compact column image per relation
// file (relation.Image), kept resident so static queries scan memory
// instead of decoding the file every time (DESIGN.md S38).
//
// An image is keyed by relation name and versioned by the file fingerprint,
// like the interval index, so a rewritten file gets a new image. It is
// built lazily by the first query that reads tuples — never by a query the
// index or the result cache answers — once per version, and the images
// together hold at most imageCacheBytes, the least recently used evicted
// first. A relation whose image alone would exceed the bound, and every
// RandomizePages scan, take the file route instead.
package catalog

import (
	"sync"

	"tempagg/internal/relation"
)

// imageCacheBytes bounds the resident bytes of all relation images.
const imageCacheBytes = 256 << 20

// imageStats is a snapshot of the image cache's counters.
type imageStats struct {
	// Builds counts images decoded from their files.
	Builds int64
	// Evictions counts images dropped to stay within the byte bound.
	Evictions int64
	// Resident is the number of images held; Bytes is their total size.
	Resident int
	Bytes    int64
}

// imageCache holds the catalog's relation images.
type imageCache struct {
	mu      sync.Mutex
	limit   int64 // the byte bound; tests lower it
	entries map[string]*imageEntry
	clock   uint64 // recency ticks for the LRU
	stats   imageStats
}

// imageEntry is one relation's image at one file version. done closes when
// the build finishes; img and err are then fixed. While the entry is in
// the cache's map, a non-nil img is resident and counted in stats.Bytes. An image that turned out
// larger than the bound (its dictionary can tip it over) stays recorded as
// tooBig with img nil, so later queries at the same version take the file
// route without decoding again.
type imageEntry struct {
	version string
	done    chan struct{}
	img     *relation.Image
	err     error
	tooBig  bool
	bytes   int64
	used    uint64
}

// fileRoute reports whether a relation of n tuples at version must be read
// from its file because its image cannot be resident.
func (ic *imageCache) fileRoute(name, version string, n int) bool {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if int64(n)*relation.ImageBytesPerTuple > ic.limit {
		return true
	}
	e, ok := ic.entries[name]
	return ok && e.version == version && e.tooBig
}

// dropImages drops every image.
func (c *Catalog) dropImages() {
	c.images.mu.Lock()
	defer c.images.mu.Unlock()
	for name, e := range c.images.entries {
		c.dropImageLocked(name, e)
	}
}

// imageStats snapshots the image cache's counters.
func (c *Catalog) imageStats() imageStats {
	c.images.mu.Lock()
	defer c.images.mu.Unlock()
	return c.images.stats
}

// imageFor returns the relation's image at the given file version, building
// it if no query has yet. Concurrent first queries wait for one build.
func (c *Catalog) imageFor(name, path, version string) (*relation.Image, error) {
	ic := &c.images
	ic.mu.Lock()
	ic.clock++
	e, ok := ic.entries[name]
	if ok && e.version == version {
		e.used = ic.clock
		ic.mu.Unlock()
		<-e.done
		if e.tooBig {
			// This query was routed before the build found the image too
			// large to keep; it decodes a private copy.
			return relation.LoadImage(path)
		}
		return e.img, e.err
	}
	if ok {
		c.dropImageLocked(name, e)
	}
	e = &imageEntry{version: version, done: make(chan struct{}), used: ic.clock}
	if ic.entries == nil {
		ic.entries = map[string]*imageEntry{}
	}
	ic.entries[name] = e
	ic.mu.Unlock()

	img, err := relation.LoadImage(path)

	ic.mu.Lock()
	defer ic.mu.Unlock()
	defer close(e.done)
	if err != nil {
		// Not cached: the next query retries, and fails the same way the
		// file route would.
		e.err = err
		if ic.entries[name] == e {
			delete(ic.entries, name)
		}
		return nil, err
	}
	ic.stats.Builds++
	c.liveM().RelationImageBuilt()
	b := img.Bytes()
	if ic.entries[name] != e {
		// Superseded by a newer version while it was built: not kept,
		// but this query and those waiting on the build still read it.
		e.img = img
		return img, nil
	}
	if b > ic.limit {
		e.tooBig = true
		return img, nil
	}
	for ic.stats.Bytes+b > ic.limit {
		if !c.evictLRULocked(name) {
			break
		}
	}
	e.img, e.bytes = img, b
	ic.stats.Bytes += b
	ic.stats.Resident++
	c.liveM().RelationImageBytes(ic.stats.Bytes)
	return img, nil
}

// evictLRULocked drops the least recently used resident image other than
// keep's, reporting whether there was one.
func (c *Catalog) evictLRULocked(keep string) bool {
	ic := &c.images
	victim := ""
	var oldest *imageEntry
	for name, e := range ic.entries {
		if name == keep || e.img == nil {
			continue
		}
		if oldest == nil || e.used < oldest.used {
			victim, oldest = name, e
		}
	}
	if oldest == nil {
		return false
	}
	c.dropImageLocked(victim, oldest)
	ic.stats.Evictions++
	c.liveM().RelationImageEvicted()
	return true
}

// dropImageLocked removes a relation's entry and releases its bytes. A
// query still reading the image keeps it alive until it finishes.
func (c *Catalog) dropImageLocked(name string, e *imageEntry) {
	ic := &c.images
	delete(ic.entries, name)
	if e.img != nil {
		ic.stats.Bytes -= e.bytes
		ic.stats.Resident--
		c.liveM().RelationImageBytes(ic.stats.Bytes)
	}
}
