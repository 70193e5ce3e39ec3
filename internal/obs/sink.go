package obs

import "time"

// Sink receives evaluator counters from internal/core. It is the only
// observability type core depends on; everything else in this package sits
// above the query layer. Implementations must be safe for concurrent use —
// the server runs one evaluator set per connection.
//
// A nil Sink disables instrumentation. Core publishes through one helper
// (core.Publish) that checks for nil, so no evaluator calls a Sink itself.
type Sink interface {
	// Record publishes one evaluator run's counters under the named
	// algorithm (the core.Algorithm String form). Evaluators record once,
	// at the end of Finish; the interval index once per build and once per
	// lookup; the live evaluator once per ingested batch. Counters of a
	// run in flight are therefore not visible until it ends.
	Record(algorithm string, c EvalCounters)
}

// EvalCounters is one run's counters behind the paper's §6 cost model, one
// field per evaluator-family series of Metrics. Zero fields record nothing
// beyond the series' existence.
type EvalCounters struct {
	// Tuples counts tuples absorbed (core.Stats.Tuples).
	Tuples int
	// NodesAllocated counts structure nodes created, including the initial
	// root/universe leaf (core.Stats.LiveNodes + Collected).
	NodesAllocated int
	// NodesCollected counts nodes reclaimed by garbage collection
	// (core.Stats.Collected; k-ordered tree only).
	NodesCollected int
	// PeakNodes is the run's high-water mark of live nodes
	// (core.Stats.PeakNodes); the gauge keeps the maximum over runs.
	PeakNodes int
	// GCThreshold is the last garbage-collection watermark — the instant
	// below which every constant interval has been emitted (§5.3). It is
	// recorded only when GC is set, so a run that never collected leaves
	// the gauge as it was.
	GCThreshold int64
	GC          bool
	// ArenaSlabs and ArenaReused describe the slab arena's teardown
	// (internal/core/arena.go): slabs returned to the shared pool and nodes
	// served from the arena free list over the run.
	ArenaSlabs, ArenaReused int
	// SweepEvents, SweepRadixPasses and SweepFallbacks describe one
	// columnar-sweep run (internal/core/sweep.go): delta events
	// materialized, non-trivial radix scatter passes, and tree fallbacks
	// taken by the MIN/MAX wedge (0 or 1 per run).
	SweepEvents, SweepRadixPasses, SweepFallbacks int
	// IndexNodes is the segment-tree node slots one interval-index build
	// materialized (S37); the gauge keeps the maximum over builds.
	IndexNodes int
	// IndexLookups and IndexMerges count index-served range or point
	// lookups and the node-partial merges performed to answer them — the
	// lookups' cost in the paper's §6 currency.
	IndexLookups, IndexMerges int
}

// Metric names exported by Metrics. Each maps to a §6 cost-model quantity;
// see the README's Observability section for the full table.
const (
	MetricTuplesProcessed = "tempagg_tuples_processed_total"
	MetricNodesAllocated  = "tempagg_tree_nodes_allocated_total"
	MetricNodesCollected  = "tempagg_tree_nodes_collected_total"
	MetricPeakNodes       = "tempagg_tree_nodes_peak"
	MetricGCThreshold     = "tempagg_gc_threshold_time"
	MetricArenaSlabs      = "tempagg_arena_slabs_recycled_total"
	MetricArenaReused     = "tempagg_arena_nodes_reused_total"
	MetricSweepEvents     = "tempagg_sweep_events_total"
	MetricSweepRadix      = "tempagg_sweep_radix_passes_total"
	MetricSweepFallbacks  = "tempagg_sweep_fallbacks_total"
	MetricQueries         = "tempagg_queries_total"
	MetricQueryDuration   = "tempagg_query_duration_seconds"
	MetricSlowQueries     = "tempagg_slow_queries_total"
	MetricSlowLogErrors   = "tempagg_slowlog_write_errors_total"
	MetricResponseRows    = "tempagg_response_rows_total"
	MetricResponseBytes   = "tempagg_response_bytes_total"
)

// Interval-index and result-cache metric names (S37). Index metrics carry
// the algorithm label like every evaluator metric; the result cache is one
// catalog-wide structure and its counters are unlabelled.
const (
	MetricIndexNodes           = "tempagg_index_nodes"
	MetricIndexLookups         = "tempagg_index_lookups_total"
	MetricIndexMerges          = "tempagg_index_partial_merges_total"
	MetricResultCacheHits      = "tempagg_result_cache_hits_total"
	MetricResultCacheMisses    = "tempagg_result_cache_misses_total"
	MetricResultCacheEvictions = "tempagg_result_cache_evictions_total"
)

// Relation-image metric names (S38): the catalog's resident column images,
// one catalog-wide cache, so the series are unlabelled.
const (
	MetricImageBuilds    = "tempagg_relation_image_builds_total"
	MetricImageEvictions = "tempagg_relation_image_evictions_total"
	MetricImageBytes     = "tempagg_relation_image_bytes"
)

// Live-relation metric names (S36). All are labelled by relation: one live
// evaluator per registered relation, shared by every writer and reader.
const (
	MetricLiveEpochSeq      = "tempagg_live_epoch_seq"
	MetricLiveSegments      = "tempagg_live_sealed_segments"
	MetricLiveTail          = "tempagg_live_tail_tuples"
	MetricLiveReaders       = "tempagg_live_readers"
	MetricLiveIngested      = "tempagg_live_tuples_ingested_total"
	MetricLiveSealed        = "tempagg_live_segments_sealed_total"
	MetricLiveSnapshotReads = "tempagg_live_snapshot_reads_total"
)

// DefaultDurationBuckets are the query-latency histogram bounds, in
// seconds: wide enough for a 64K-tuple linked-list run (the paper's worst
// case, ~minutes in 1995, ~seconds today) and fine enough for the tree
// algorithms' sub-millisecond runs.
var DefaultDurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30,
}

// Metrics is the pipeline's metric set over a Registry. It implements Sink
// for core evaluators and records query-level outcomes for the query layer.
type Metrics struct {
	reg *Registry

	tuples      *CounterVec   // by algorithm
	nodesAlloc  *CounterVec   // by algorithm
	nodesColl   *CounterVec   // by algorithm
	peakNodes   *GaugeVec     // by algorithm, max semantics
	gcThreshold *GaugeVec     // by algorithm, last value
	arenaSlabs  *CounterVec   // by algorithm
	arenaReused *CounterVec   // by algorithm
	sweepEvents *CounterVec   // by algorithm
	sweepRadix  *CounterVec   // by algorithm
	sweepFalls  *CounterVec   // by algorithm
	queries     *CounterVec   // by algorithm, status
	duration    *HistogramVec // by algorithm
	slow        *Counter
	slowErrs    *Counter
	respRows    *Counter
	respBytes   *Counter

	idxNodes   *GaugeVec   // by algorithm, max over builds
	idxLookups *CounterVec // by algorithm
	idxMerges  *CounterVec // by algorithm
	cacheHits  *Counter
	cacheMiss  *Counter
	cacheEvict *Counter

	imageBuilds *Counter
	imageEvicts *Counter
	imageBytes  *Gauge

	liveSeq      *GaugeVec   // by relation, last published epoch
	liveSegments *GaugeVec   // by relation
	liveTail     *GaugeVec   // by relation
	liveReaders  *GaugeVec   // by relation, outstanding snapshot leases
	liveIngested *CounterVec // by relation
	liveSealed   *CounterVec // by relation
	liveReads    *CounterVec // by relation
}

var _ Sink = (*Metrics)(nil)

// NewMetrics registers the tempagg metric families on reg and returns the
// recording front-end.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		reg: reg,
		tuples: reg.CounterVec(MetricTuplesProcessed,
			"Tuples absorbed by evaluators (core.Stats.Tuples).", "algorithm"),
		nodesAlloc: reg.CounterVec(MetricNodesAllocated,
			"Structure nodes allocated, 16 bytes each per the paper's cost model (core.NodeBytes).", "algorithm"),
		nodesColl: reg.CounterVec(MetricNodesCollected,
			"Structure nodes reclaimed by garbage collection (k-ordered tree, paper Fig. 5).", "algorithm"),
		peakNodes: reg.GaugeVec(MetricPeakNodes,
			"High-water mark of live structure nodes across evaluator runs (paper Fig. 9).", "algorithm"),
		gcThreshold: reg.GaugeVec(MetricGCThreshold,
			"Latest garbage-collection watermark: instants below it are fully emitted (paper 5.3).", "algorithm"),
		arenaSlabs: reg.CounterVec(MetricArenaSlabs,
			"Node slabs returned to the shared arena pool at evaluator teardown (S32).", "algorithm"),
		arenaReused: reg.CounterVec(MetricArenaReused,
			"Nodes served from the arena free list instead of fresh slab space (k-ordered GC reuse).", "algorithm"),
		sweepEvents: reg.CounterVec(MetricSweepEvents,
			"Delta events materialized by the columnar sweep evaluator (S33).", "algorithm"),
		sweepRadix: reg.CounterVec(MetricSweepRadix,
			"Non-trivial LSD radix scatter passes performed by the sweep's event sort.", "algorithm"),
		sweepFalls: reg.CounterVec(MetricSweepFallbacks,
			"Sweep runs that fell back to the aggregation tree (MIN/MAX wedge overflow).", "algorithm"),
		queries: reg.CounterVec(MetricQueries,
			"Queries executed, by chosen algorithm and outcome.", "algorithm", "status"),
		duration: reg.HistogramVec(MetricQueryDuration,
			"End-to-end query latency in seconds, by chosen algorithm.",
			DefaultDurationBuckets, "algorithm"),
		slow: reg.Counter(MetricSlowQueries,
			"Queries slower than the slow-query threshold."),
		slowErrs: reg.Counter(MetricSlowLogErrors,
			"Slow-query log lines that failed to write."),
		respRows: reg.Counter(MetricResponseRows,
			"Constant-interval rows the server wrote in replies."),
		respBytes: reg.Counter(MetricResponseBytes,
			"Reply bytes the server wrote, trailing newlines included."),
		idxNodes: reg.GaugeVec(MetricIndexNodes,
			"High-water mark of partial-state node slots materialized by one interval-index build (S37).", "algorithm"),
		idxLookups: reg.CounterVec(MetricIndexLookups,
			"Range and point lookups served from the interval index.", "algorithm"),
		idxMerges: reg.CounterVec(MetricIndexMerges,
			"Node-partial merges performed by index lookups (O(k + log n) per lookup).", "algorithm"),
		cacheHits: reg.Counter(MetricResultCacheHits,
			"Range-query results served from the epoch-keyed result cache (S37)."),
		cacheMiss: reg.Counter(MetricResultCacheMisses,
			"Result-cache lookups that had to evaluate."),
		cacheEvict: reg.Counter(MetricResultCacheEvictions,
			"Result-cache entries evicted by the LRU bound."),
		imageBuilds: reg.Counter(MetricImageBuilds,
			"Relation images decoded from their files (S38)."),
		imageEvicts: reg.Counter(MetricImageEvictions,
			"Relation images dropped to keep the image cache within its byte bound."),
		imageBytes: reg.Gauge(MetricImageBytes,
			"Bytes held by resident relation images."),
		liveSeq: reg.GaugeVec(MetricLiveEpochSeq,
			"Tuples admitted to the live relation at its last published epoch (S36).", "relation"),
		liveSegments: reg.GaugeVec(MetricLiveSegments,
			"Sealed immutable segments held by the live relation.", "relation"),
		liveTail: reg.GaugeVec(MetricLiveTail,
			"Tuples in the live relation's mutable tail (not yet sealed).", "relation"),
		liveReaders: reg.GaugeVec(MetricLiveReaders,
			"Outstanding snapshot leases: readers holding an epoch of the live relation.", "relation"),
		liveIngested: reg.CounterVec(MetricLiveIngested,
			"Tuples ingested into the live relation since registration.", "relation"),
		liveSealed: reg.CounterVec(MetricLiveSealed,
			"Tail segments sealed into the immutable set.", "relation"),
		liveReads: reg.CounterVec(MetricLiveSnapshotReads,
			"Snapshot reads served against the live relation.", "relation"),
	}
}

// Registry returns the registry the metrics record into.
func (m *Metrics) Registry() *Registry { return m.reg }

// Record implements Sink: it adds one run's counters to the algorithm's
// series, creating every evaluator-family series for the label on first
// use.
func (m *Metrics) Record(algorithm string, c EvalCounters) {
	if m == nil {
		return
	}
	m.tuples.With(algorithm).Add(int64(c.Tuples))
	m.nodesAlloc.With(algorithm).Add(int64(c.NodesAllocated))
	m.nodesColl.With(algorithm).Add(int64(c.NodesCollected))
	m.peakNodes.With(algorithm).SetMax(int64(c.PeakNodes))
	gc := m.gcThreshold.With(algorithm)
	if c.GC {
		gc.Set(c.GCThreshold)
	}
	m.arenaSlabs.With(algorithm).Add(int64(c.ArenaSlabs))
	m.arenaReused.With(algorithm).Add(int64(c.ArenaReused))
	m.sweepEvents.With(algorithm).Add(int64(c.SweepEvents))
	m.sweepRadix.With(algorithm).Add(int64(c.SweepRadixPasses))
	m.sweepFalls.With(algorithm).Add(int64(c.SweepFallbacks))
	m.idxNodes.With(algorithm).SetMax(int64(c.IndexNodes))
	m.idxLookups.With(algorithm).Add(int64(c.IndexLookups))
	m.idxMerges.With(algorithm).Add(int64(c.IndexMerges))
}

// RecordQuery records one finished query: the per-algorithm count (status
// "ok" or "error") and the latency histogram.
func (m *Metrics) RecordQuery(algorithm string, d time.Duration, failed bool) {
	if m == nil {
		return
	}
	status := "ok"
	if failed {
		status = "error"
	}
	m.queries.With(algorithm, status).Inc()
	m.duration.With(algorithm).Observe(d.Seconds())
}

// RecordSlow counts one slow query and, when the structured log write
// failed, the write error — the error is surfaced as a counter rather than
// failing the query that happened to trip the log.
func (m *Metrics) RecordSlow(writeErr error) {
	if m == nil {
		return
	}
	m.slow.Inc()
	if writeErr != nil {
		m.slowErrs.Inc()
	}
}

// RecordResponse counts one reply the server wrote: its result rows and
// its bytes on the wire.
func (m *Metrics) RecordResponse(rows int, bytes int64) {
	if m == nil {
		return
	}
	m.respRows.Add(int64(rows))
	m.respBytes.Add(bytes)
}

// ResultCacheHit counts one range query served from the result cache.
func (m *Metrics) ResultCacheHit() {
	if m == nil {
		return
	}
	m.cacheHits.Inc()
}

// ResultCacheMiss counts one result-cache lookup that had to evaluate.
func (m *Metrics) ResultCacheMiss() {
	if m == nil {
		return
	}
	m.cacheMiss.Inc()
}

// ResultCacheEvicted counts entries evicted by the cache's LRU bound.
func (m *Metrics) ResultCacheEvicted(n int) {
	if m == nil || n == 0 {
		return
	}
	m.cacheEvict.Add(int64(n))
}

// RelationImageBuilt counts one relation image decoded from its file.
func (m *Metrics) RelationImageBuilt() {
	if m == nil {
		return
	}
	m.imageBuilds.Inc()
}

// RelationImageEvicted counts one relation image dropped by the byte bound.
func (m *Metrics) RelationImageEvicted() {
	if m == nil {
		return
	}
	m.imageEvicts.Inc()
}

// RelationImageBytes publishes the bytes held by resident relation images.
func (m *Metrics) RelationImageBytes(n int64) {
	if m == nil {
		return
	}
	m.imageBytes.Set(n)
}

// LiveEpoch publishes a live relation's current epoch position: tuples
// admitted, sealed segments, and tail watermark.
func (m *Metrics) LiveEpoch(relation string, seq int64, segments, tail int) {
	if m == nil {
		return
	}
	m.liveSeq.With(relation).Set(seq)
	m.liveSegments.With(relation).Set(int64(segments))
	m.liveTail.With(relation).Set(int64(tail))
}

// LiveIngested counts tuples admitted to a live relation.
func (m *Metrics) LiveIngested(relation string, n int) {
	if m == nil {
		return
	}
	m.liveIngested.With(relation).Add(int64(n))
}

// LiveSealed counts tail segments sealed into the immutable set.
func (m *Metrics) LiveSealed(relation string, n int64) {
	if m == nil {
		return
	}
	m.liveSealed.With(relation).Add(n)
}

// LiveSnapshotRead counts one snapshot read served for a live relation.
func (m *Metrics) LiveSnapshotRead(relation string) {
	if m == nil {
		return
	}
	m.liveReads.With(relation).Inc()
}

// LiveReaders moves a live relation's outstanding-lease gauge by delta:
// +1 when a snapshot is acquired, -1 when its release runs.
func (m *Metrics) LiveReaders(relation string, delta int64) {
	if m == nil {
		return
	}
	m.liveReaders.With(relation).Add(delta)
}
