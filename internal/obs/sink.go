package obs

import "time"

// Sink receives low-level evaluator events from internal/core. It is the
// only observability type core depends on; everything else in this package
// sits above the query layer. Implementations must be safe for concurrent
// use — the server runs one evaluator set per connection.
//
// A nil Sink disables instrumentation: core checks the interface for nil
// once per evaluator and keeps a nil EvalSink handle, so the per-tuple cost
// of disabled observability is a single pointer comparison.
type Sink interface {
	// Evaluator returns the event handle for one evaluator run of the named
	// algorithm (the core.Algorithm String form). Resolving the handle once
	// per evaluator keeps label lookups out of the per-tuple path.
	Evaluator(algorithm string) EvalSink
	// Flush delivers any buffered events. Implementations that write
	// asynchronously must report delivery failures here; callers must not
	// drop the error (tempagglint's errdrop analyzer enforces this for all
	// tempagg APIs, this one included).
	Flush() error
}

// EvalSink receives the per-evaluator events behind the paper's §6 cost
// model. Methods must be cheap: they sit on the Add hot path.
type EvalSink interface {
	// TuplesProcessed counts tuples absorbed (core.Stats.Tuples).
	TuplesProcessed(n int)
	// NodesAllocated counts structure nodes created, including the initial
	// root/universe leaf (cumulative; core.Stats.LiveNodes + Collected).
	NodesAllocated(n int)
	// NodesCollected counts nodes reclaimed by garbage collection
	// (core.Stats.Collected; k-ordered tree only).
	NodesCollected(n int)
	// PeakNodes reports a high-water mark of live nodes
	// (core.Stats.PeakNodes); the sink keeps the maximum it has seen.
	PeakNodes(n int)
	// GCThreshold reports the latest garbage-collection watermark — the
	// instant below which every constant interval has been emitted (§5.3).
	GCThreshold(t int64)
	// ArenaRelease reports one evaluator teardown of the slab arena
	// (internal/core/arena.go): slabs returned to the shared pool and nodes
	// that were served from the arena free list over the run.
	ArenaRelease(slabs, reusedNodes int)
	// Sweep reports one columnar-sweep run (internal/core/sweep.go): delta
	// events materialized, non-trivial radix scatter passes, and tree
	// fallbacks taken by the MIN/MAX wedge (0 or 1 per run). Called once at
	// Finish, off the per-tuple path.
	Sweep(events, radixPasses, fallbacks int)
	// SweepParallel reports one sweep scan's parallelism: worker goroutines
	// resolved and chunks the event stream was cut into (1 and 1 for a
	// serial run). Called once at Finish alongside Sweep. Worker counts are
	// recorded as one histogram observation per scan, so concurrent queries
	// with different parallelism never overwrite each other.
	SweepParallel(workers, chunks int)
	// IndexBuild reports one interval-index construction (S37): segment-tree
	// node slots materialized and tuples indexed. Called once per build.
	IndexBuild(nodes, tuples int)
	// IndexLookup reports one index-served range or point lookup and the
	// node-partial merges performed to answer it — the lookup's cost in the
	// paper's §6 currency.
	IndexLookup(merges int)
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
	MetricSweepWorkers    = "tempagg_sweep_parallel_workers"
	MetricSweepChunks     = "tempagg_sweep_chunks_total"
	MetricQueries         = "tempagg_queries_total"
	MetricQueryDuration   = "tempagg_query_duration_seconds"
	MetricSlowQueries     = "tempagg_slow_queries_total"
	MetricSlowLogErrors   = "tempagg_slowlog_write_errors_total"
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

// WorkerBuckets are the sweep-parallelism histogram bounds: power-of-two
// worker counts up to one beyond any GOMAXPROCS the bench fleet uses.
var WorkerBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

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
	sweepWork   *HistogramVec // by algorithm, workers per sweep scan
	sweepChunks *CounterVec   // by algorithm
	queries     *CounterVec   // by algorithm, status
	duration    *HistogramVec // by algorithm
	slow        *Counter
	slowErrs    *Counter

	idxNodes   *GaugeVec   // by algorithm, max over builds
	idxLookups *CounterVec // by algorithm
	idxMerges  *CounterVec // by algorithm
	cacheHits  *Counter
	cacheMiss  *Counter
	cacheEvict *Counter

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
		sweepWork: reg.HistogramVec(MetricSweepWorkers,
			"Distribution of worker goroutines resolved per sweep scan (1 when serial). "+
				"A histogram rather than a gauge: concurrent queries would race a last-write-wins gauge.",
			WorkerBuckets, "algorithm"),
		sweepChunks: reg.CounterVec(MetricSweepChunks,
			"Event-stream chunks scanned by the parallel sweep (one per serial run).", "algorithm"),
		queries: reg.CounterVec(MetricQueries,
			"Queries executed, by chosen algorithm and outcome.", "algorithm", "status"),
		duration: reg.HistogramVec(MetricQueryDuration,
			"End-to-end query latency in seconds, by chosen algorithm.",
			DefaultDurationBuckets, "algorithm"),
		slow: reg.Counter(MetricSlowQueries,
			"Queries slower than the slow-query threshold."),
		slowErrs: reg.Counter(MetricSlowLogErrors,
			"Slow-query log lines that failed to write."),
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

// Evaluator returns the handle for one evaluator run; see Sink.
func (m *Metrics) Evaluator(algorithm string) EvalSink {
	return &evalSink{
		tuples:      m.tuples.With(algorithm),
		nodesAlloc:  m.nodesAlloc.With(algorithm),
		nodesColl:   m.nodesColl.With(algorithm),
		peakNodes:   m.peakNodes.With(algorithm),
		gcThreshold: m.gcThreshold.With(algorithm),
		arenaSlabs:  m.arenaSlabs.With(algorithm),
		arenaReused: m.arenaReused.With(algorithm),
		sweepEvents: m.sweepEvents.With(algorithm),
		sweepRadix:  m.sweepRadix.With(algorithm),
		sweepFalls:  m.sweepFalls.With(algorithm),
		sweepWork:   m.sweepWork.With(algorithm),
		sweepChunks: m.sweepChunks.With(algorithm),
		idxNodes:    m.idxNodes.With(algorithm),
		idxLookups:  m.idxLookups.With(algorithm),
		idxMerges:   m.idxMerges.With(algorithm),
	}
}

// Flush implements Sink. Metrics records synchronously into atomics, so
// there is never anything buffered.
func (m *Metrics) Flush() error { return nil }

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

// evalSink is the resolved-series handle returned by Metrics.Evaluator.
type evalSink struct {
	tuples      *Counter
	nodesAlloc  *Counter
	nodesColl   *Counter
	peakNodes   *Gauge
	gcThreshold *Gauge
	arenaSlabs  *Counter
	arenaReused *Counter
	sweepEvents *Counter
	sweepRadix  *Counter
	sweepFalls  *Counter
	sweepWork   *Histogram
	sweepChunks *Counter
	idxNodes    *Gauge
	idxLookups  *Counter
	idxMerges   *Counter
}

func (s *evalSink) TuplesProcessed(n int) { s.tuples.Add(int64(n)) }
func (s *evalSink) NodesAllocated(n int)  { s.nodesAlloc.Add(int64(n)) }
func (s *evalSink) NodesCollected(n int)  { s.nodesColl.Add(int64(n)) }
func (s *evalSink) PeakNodes(n int)       { s.peakNodes.SetMax(int64(n)) }
func (s *evalSink) GCThreshold(t int64)   { s.gcThreshold.Set(t) }
func (s *evalSink) ArenaRelease(slabs, reusedNodes int) {
	s.arenaSlabs.Add(int64(slabs))
	s.arenaReused.Add(int64(reusedNodes))
}
func (s *evalSink) Sweep(events, radixPasses, fallbacks int) {
	s.sweepEvents.Add(int64(events))
	s.sweepRadix.Add(int64(radixPasses))
	s.sweepFalls.Add(int64(fallbacks))
}
func (s *evalSink) SweepParallel(workers, chunks int) {
	s.sweepWork.Observe(float64(workers))
	s.sweepChunks.Add(int64(chunks))
}
func (s *evalSink) IndexBuild(nodes, tuples int) {
	s.idxNodes.SetMax(int64(nodes))
	s.tuples.Add(int64(tuples))
}
func (s *evalSink) IndexLookup(merges int) {
	s.idxLookups.Inc()
	s.idxMerges.Add(int64(merges))
}
