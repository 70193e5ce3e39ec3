// Package tempagg computes temporal aggregates over interval-stamped
// relations, implementing the algorithms of Nick Kline and Richard T.
// Snodgrass, "Computing Temporal Aggregates", ICDE 1995.
//
// A temporal aggregate grouped by instant asks, for an aggregate function
// such as COUNT or AVG, "what is the value at every point in time?". The
// answer is a sequence of constant intervals — maximal periods over which
// the set of overlapping tuples, and hence the value, does not change —
// each paired with its aggregate value.
//
// Five evaluation strategies are provided:
//
//   - LinkedList — the naive single-scan list of constant intervals (§4.2).
//   - AggregationTree — an unbalanced binary tree of constant intervals,
//     fastest on randomly ordered relations but O(n²) on sorted ones (§5.1).
//   - KOrderedTree — the aggregation tree with garbage collection for
//     k-ordered relations; with k=1 over a sorted relation it is the
//     paper's recommended strategy in both time and space (§5.3, §7).
//   - BalancedTree — the paper's future-work self-balancing variant (§7).
//   - SweepEval — a columnar event sweep: tuples become signed delta
//     events, radix-sorted and merged in one linear scan. The fastest
//     strategy for COUNT/SUM/AVG on unsorted input; MIN/MAX runs through a
//     value-ordered wedge with an aggregation-tree fallback.
//
// plus Tuma's two-pass baseline (§4.1) for comparison, a TSQL2-flavoured
// query language with a §6.3-style optimizer, sortedness metrics
// (k-orderedness and k-ordered-percentage, §5.2), a paged binary storage
// layer, and the paper's synthetic workload generator (§6).
//
// Quick start:
//
//	rel := tempagg.Employed()
//	res, _, err := tempagg.ComputeByInstant(rel, tempagg.Count,
//		tempagg.Spec{Algorithm: tempagg.AggregationTree})
//	// res.Rows: [0,6]→0, [7,7]→1, [8,12]→2, [13,17]→1, [18,20]→3, …
//
// or through the query language:
//
//	qr, err := tempagg.Query("SELECT COUNT(Name) FROM Employed", rel, nil)
package tempagg

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/catalog"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/order"
	"tempagg/internal/query"
	"tempagg/internal/relation"
	"tempagg/internal/server"
	"tempagg/internal/stats"
	"tempagg/internal/tuple"
	"tempagg/internal/workload"
)

// Core model types.
type (
	// Time is a chronon, a discrete instant on the time-line.
	Time = interval.Time
	// Interval is a closed interval [Start, End] of chronons.
	Interval = interval.Interval
	// Tuple is an interval-stamped fact: Name, Value, and valid time.
	Tuple = tuple.Tuple
	// Relation is an ordered collection of tuples.
	Relation = relation.Relation
	// AggregateKind selects COUNT, SUM, AVG, MIN, or MAX.
	AggregateKind = aggregate.Kind
	// AggregateValue is one finalized aggregate result.
	AggregateValue = aggregate.Value
	// Result is the time-varying aggregate: constant intervals with values.
	Result = core.Result
	// Row is one constant interval of a Result.
	Row = core.Row
	// Stats reports an evaluation's work and space counters.
	Stats = core.Stats
	// Algorithm names an evaluation strategy.
	Algorithm = core.Algorithm
	// Spec selects and parameterizes an algorithm.
	Spec = core.Spec
	// Evaluator is the incremental single-scan evaluation interface.
	Evaluator = core.Evaluator
	// TupleSource is a rescannable tuple stream (for the Tuma baseline).
	TupleSource = core.TupleSource
	// QueryResult is the outcome of a query-language execution.
	QueryResult = query.QueryResult
	// RelationInfo is optimizer metadata for query planning.
	RelationInfo = query.RelationInfo
	// Plan is the optimizer's chosen strategy.
	Plan = query.Plan
	// WorkloadConfig parameterizes synthetic relation generation (Table 3).
	WorkloadConfig = workload.Config
	// PartitionOptions configures bounded-memory partitioned evaluation.
	PartitionOptions = core.PartitionOptions
	// StreamChunk is one partition's coalesced result, handed to
	// ComputePartitionedStream's emit callback.
	StreamChunk = core.StreamChunk
	// LiveEvaluator ingests tuples concurrently with snapshot readers:
	// epoch-based consistent reads during live ingestion (S36).
	LiveEvaluator = core.LiveEvaluator
	// LiveOptions parameterizes a live evaluator (segment size).
	LiveOptions = core.LiveOptions
	// LiveSnapshot is one consistent epoch of a live evaluator.
	LiveSnapshot = core.LiveSnapshot
	// LiveEpoch identifies a snapshot's position in the ingestion order.
	LiveEpoch = core.LiveEpoch
	// ScanOptions configures on-disk relation scans.
	ScanOptions = relation.ScanOptions
	// Scanner reads a relation file one page at a time.
	Scanner = relation.Scanner
	// CostModel prices memory, I/O, and CPU for cost-based planning (§6.3).
	CostModel = query.CostModel
	// Granularity is a calendar span length for temporal grouping.
	Granularity = interval.Granularity
	// Catalog is a directory of relation files with optimizer declarations.
	Catalog = catalog.Catalog
	// CatalogEntry holds one relation's persisted declarations.
	CatalogEntry = catalog.Entry
	// Server serves a catalog's queries over TCP.
	Server = server.Server
	// ServerClient is the line-protocol client for Server.
	ServerClient = server.Client
)

// OpenCatalog loads the catalog directory at dir: every *.rel file is a
// relation, overlaid with declarations from catalog.json.
func OpenCatalog(dir string) (*Catalog, error) { return catalog.Open(dir) }

// NewServer returns a TCP query server over the catalog.
func NewServer(cat *Catalog) *Server { return server.New(cat) }

// DialServer connects a line-protocol client to a running server.
func DialServer(addr string) (*ServerClient, error) { return server.Dial(addr) }

// EstimateConstantIntervals estimates the number of constant intervals the
// relation induces, from a uniform sample (Chao1 over boundary timestamps);
// feeds RelationInfo.ExpectedConstantIntervals.
func EstimateConstantIntervals(ts []Tuple, sampleSize int, seed int64) int {
	return stats.EstimateConstantIntervals(ts, sampleSize, seed)
}

// Time-line bounds.
const (
	// Origin is the earliest instant, 0.
	Origin = interval.Origin
	// Forever is the greatest instant, the paper's ∞.
	Forever = interval.Forever
)

// Aggregate kinds.
const (
	Count = aggregate.Count
	Sum   = aggregate.Sum
	Avg   = aggregate.Avg
	Min   = aggregate.Min
	Max   = aggregate.Max
)

// Algorithms.
const (
	LinkedList      = core.LinkedList
	AggregationTree = core.AggregationTree
	KOrderedTree    = core.KOrderedTree
	BalancedTree    = core.BalancedTree
	SweepEval       = core.SweepEval
)

// Workload orders for Generate (Table 3).
const (
	// WorkloadRandom leaves generated tuples in random order.
	WorkloadRandom = workload.Random
	// WorkloadSorted totally orders the generated relation by time.
	WorkloadSorted = workload.Sorted
	// WorkloadKOrdered sorts then disorders to a target (K, KPct).
	WorkloadKOrdered = workload.KOrdered
)

// NewInterval returns the closed interval [start, end].
func NewInterval(start, end Time) (Interval, error) { return interval.New(start, end) }

// NewTuple constructs a validated tuple.
func NewTuple(name string, value int64, start, end Time) (Tuple, error) {
	return tuple.New(name, value, start, end)
}

// NewRelation returns an empty relation with the given name.
func NewRelation(name string) *Relation { return relation.New(name) }

// RelationFromTuples builds a relation over a copy of ts.
func RelationFromTuples(name string, ts []Tuple) *Relation {
	return relation.FromTuples(name, ts)
}

// Employed returns the paper's running-example relation (Figure 1).
func Employed() *Relation { return relation.Employed() }

// NewEvaluator constructs an incremental evaluator; feed tuples with Add and
// collect constant intervals with Finish.
func NewEvaluator(spec Spec, kind AggregateKind) (Evaluator, error) {
	return core.New(spec, aggregate.For(kind))
}

// ComputeByInstant evaluates the temporal aggregate grouped by instant over
// the relation, using the given algorithm.
func ComputeByInstant(rel *Relation, kind AggregateKind, spec Spec) (*Result, Stats, error) {
	return core.Run(spec, aggregate.For(kind), rel.Tuples)
}

// ComputeBySpan evaluates the temporal aggregate grouped by fixed-length
// spans over the given finite window.
func ComputeBySpan(rel *Relation, kind AggregateKind, span Time, window Interval) (*Result, error) {
	return core.GroupBySpan(aggregate.For(kind), rel.Tuples, span, window)
}

// ComputeTuma evaluates with the two-pass baseline (§4.1); the source is
// scanned twice.
func ComputeTuma(src TupleSource, kind AggregateKind) (*Result, error) {
	return core.Tuma(src, aggregate.For(kind))
}

// NewSliceSource adapts an in-memory tuple slice to a rescannable source.
func NewSliceSource(ts []Tuple) TupleSource { return core.NewSliceSource(ts) }

// Query parses and executes a TSQL2-flavoured query over the relation. info
// supplies optimizer metadata; nil derives it from the relation.
func Query(sql string, rel *Relation, info *RelationInfo) (*QueryResult, error) {
	return query.Run(sql, rel, info)
}

// NewLive returns an empty live evaluator: writers Add/AddBatch while
// readers take consistent epochs with Snapshot, without blocking either
// side on the other.
func NewLive(opts LiveOptions) *LiveEvaluator { return core.NewLive(opts) }

// ErrLiveClosed is returned by live ingestion and Snapshot after Close.
var ErrLiveClosed = core.ErrLiveClosed

// KOrderedness returns the minimal k for which the tuples are k-ordered.
func KOrderedness(ts []Tuple) int { return order.KOrderedness(ts) }

// KOrderedPercentage computes the paper's disorder ratio Σ i·nᵢ / (k·n).
func KOrderedPercentage(ts []Tuple, k int) (float64, error) {
	return order.KOrderedPercentage(ts, k)
}

// Deduplicate removes exact duplicate tuples, keeping first occurrences —
// the paper's recommended duplicate treatment (§7).
func Deduplicate(ts []Tuple) []Tuple { return relation.Deduplicate(ts) }

// CoalesceTuples merges value-equivalent tuples whose intervals overlap or
// meet, returning a time-ordered slice (temporal-database coalescing).
func CoalesceTuples(ts []Tuple) []Tuple { return relation.CoalesceTuples(ts) }

// ComputePartitioned evaluates the instant-grouped aggregate with bounded
// memory by cutting the time-line into partitions, each handled in turn by
// its own aggregation tree (§5.1/§7); see PartitionOptions for spill-to-disk.
func ComputePartitioned(rel *Relation, kind AggregateKind, opts PartitionOptions) (*Result, Stats, error) {
	return core.EvaluatePartitioned(aggregate.For(kind), rel.Tuples, opts)
}

// ComputePartitionedStream is ComputePartitioned without the collecting
// result: emit receives each partition's coalesced constant intervals, in
// partition order, as soon as that partition finishes. An error from emit
// stops the evaluation and is returned.
func ComputePartitionedStream(rel *Relation, kind AggregateKind, opts PartitionOptions, emit func(StreamChunk) error) (Stats, error) {
	return core.EvaluatePartitionedStream(aggregate.For(kind), rel.Tuples, opts, emit)
}

// UniformBoundaries cuts a finite lifespan into n equal-width partitions
// for ComputePartitioned.
func UniformBoundaries(lifespan Interval, n int) []Time {
	return core.UniformBoundaries(lifespan, n)
}

// Generate builds a synthetic relation per the paper's Table 3 parameters.
func Generate(cfg WorkloadConfig) (*Relation, error) { return workload.Generate(cfg) }

// WriteRelation stores a relation at path in the paged binary format.
func WriteRelation(path string, rel *Relation) error { return relation.WriteFile(path, rel) }

// ReadRelation loads a relation file into memory, preserving physical order.
func ReadRelation(path string) (*Relation, error) { return relation.ReadFile(path) }

// OpenRelation opens a relation file for a paged scan.
func OpenRelation(path string, opts ScanOptions) (*Scanner, error) {
	return relation.Open(path, opts)
}
