// Range-query acceleration: the catalog half of DESIGN.md S37.
//
// Two opt-in layers sit in front of query execution. The interval-index
// cache keeps one materialized core.IntervalIndex per relation file, keyed
// by the file's fingerprint (size + mtime): any rewrite of the file makes
// the cached index unreachable and the next eligible query rebuilds it.
// The result cache keeps finished range-query answers over relation files
// in an LRU keyed by (relation, version, aggregate kind, window), where
// version is the file fingerprint — rewriting the file moves it, so
// staleness is structural, never timed. LIVE reads bypass the cache (see
// executeLive).
package catalog

import (
	"fmt"
	"os"

	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/query"
	"tempagg/internal/relation"
)

// indexEntry is one relation's cached interval index plus the file
// fingerprint it was built from.
type indexEntry struct {
	version string
	idx     *core.IntervalIndex
}

// EnableRangeIndex turns on the per-relation interval-index cache: eligible
// queries (query.IndexEligible) are planned against a resident index built
// lazily on first use and reused until the relation file changes.
func (c *Catalog) EnableRangeIndex() {
	c.rangeIndex.Store(true)
}

// EnableResultCache turns on the LRU result cache with the given entry
// capacity (≤ 0 means core.DefaultResultCacheCapacity). Calling it again
// replaces the cache; the old one is closed.
func (c *Catalog) EnableResultCache(capacity int) {
	if old := c.results.Swap(core.NewResultCache(capacity)); old != nil {
		defer old.Close()
	}
}

// ResultCacheStats snapshots the result cache's counters; the zero value
// when the cache is disabled.
func (c *Catalog) ResultCacheStats() core.CacheStats {
	rc := c.results.Load()
	if rc == nil {
		return core.CacheStats{}
	}
	return rc.Stats()
}

// Close releases the catalog's caches. Cached interval indexes are not
// explicitly closed — in-flight lookups may still hold them; the collector
// reclaims them once the last reader drops its handle.
func (c *Catalog) Close() error {
	c.dropImages()
	if rc := c.results.Swap(nil); rc != nil {
		return rc.Close()
	}
	return nil
}

// fileFingerprint derives a relation file's version from its size and
// modification time. An unreadable file yields "", which disables both
// caches for the query rather than serving a possibly-stale answer.
func fileFingerprint(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%d:%d", fi.Size(), fi.ModTime().UnixNano())
}

// indexFor returns the resident index for a relation file, building (or
// rebuilding, when the fingerprint moved) under the index lock so
// concurrent first queries construct it once. Superseded indexes are left
// to the collector: a replaced entry may still be serving older queries.
func (c *Catalog) indexFor(name, path, version string) (*core.IntervalIndex, error) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if e, ok := c.indexes[name]; ok && e.version == version {
		return e.idx, nil
	}
	rel, err := relation.ReadFile(path)
	if err != nil {
		return nil, err
	}
	idx, err := core.NewIntervalIndex(rel.Tuples)
	if err != nil {
		return nil, err
	}
	// The sink is attached before the index escapes the lock; lookups
	// publish under the index-lookup algorithm label.
	if m := c.liveM(); m != nil {
		idx.SetSink(m)
	}
	if c.indexes == nil {
		c.indexes = map[string]indexEntry{}
	}
	c.indexes[name] = indexEntry{version: version, idx: idx}
	return idx, nil
}

// cacheWindow normalizes a query's range restriction into the cache key's
// window: [t, t] for AT, the VALID OVERLAPS window, or the whole time-line.
func cacheWindow(q *query.Query) interval.Interval {
	switch {
	case q.At != nil:
		return interval.At(*q.At)
	case q.Window != nil:
		return *q.Window
	}
	return interval.Universe()
}

// cacheable reports whether a query's answer can be keyed by (relation,
// version, kind, window) alone: the same shape the interval index serves —
// any predicate or grouping beyond the window would need to be part of the
// key.
func cacheable(q *query.Query) bool {
	if len(q.Where) > 0 || q.GroupAttr != nil || q.Temporal == query.BySpan {
		return false
	}
	for _, a := range q.Aggs {
		if a.Distinct {
			return false
		}
	}
	return len(q.Aggs) > 0 && q.Explain != query.ExplainPlan
}

// serveCached tries to answer q entirely from the result cache at the
// given version. Every select-list aggregate must hit; a partial hit is a
// miss (the query then evaluates once and refills every key). The attempt
// is recorded as a "result-cache" span with outcome=hit|miss, so EXPLAIN
// ANALYZE shows warm reads explicitly.
func (c *Catalog) serveCached(rc *core.ResultCache, q *query.Query, version string, tr *obs.QueryTrace) (*query.QueryResult, bool) {
	span := tr.StartSpan("result-cache")
	w := cacheWindow(q)
	gr := query.GroupResult{}
	for _, a := range q.Aggs {
		res, ok := rc.Get(core.CacheKey{
			Relation: q.Relation, Version: version, Kind: a.Kind, Window: w,
		})
		if !ok {
			span.SetAttr("outcome", "miss")
			span.End()
			c.liveM().ResultCacheMiss()
			return nil, false
		}
		gr.Results = append(gr.Results, res)
		gr.AllStats = append(gr.AllStats, core.Stats{})
	}
	span.SetAttr("outcome", "hit")
	// End before rendering: EXPLAIN ANALYZE walks the span tree below, and
	// an unfinished span would render without its duration.
	span.End()
	c.liveM().ResultCacheHit()
	gr.Result, gr.Stats = gr.Results[0], gr.AllStats[0]
	plan := query.Plan{Cached: true, Reason: fmt.Sprintf("result cache hit at version %s", version)}
	tr.SetPlan(plan.Algorithm(), 0, plan.String())
	tr.SetGroups(1)
	qr := &query.QueryResult{Query: q, Plan: plan, Groups: []query.GroupResult{gr}}
	if q.Explain == query.ExplainAnalyze {
		qr.Explain = query.RenderExplain(qr, tr)
	}
	return qr, true
}

// storeResults fills the cache with a finished query's per-aggregate rows
// under the version they were computed at.
func (c *Catalog) storeResults(rc *core.ResultCache, q *query.Query, version string, qr *query.QueryResult) {
	if len(qr.Groups) != 1 || qr.Plan.Cached {
		return
	}
	w := cacheWindow(q)
	evicted := 0
	for i, a := range q.Aggs {
		if i >= len(qr.Groups[0].Results) {
			break
		}
		evicted += rc.Put(core.CacheKey{
			Relation: q.Relation, Version: version, Kind: a.Kind, Window: w,
		}, qr.Groups[0].Results[i])
	}
	if evicted > 0 {
		c.liveM().ResultCacheEvicted(evicted)
	}
}
