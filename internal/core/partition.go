package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// PartitionOptions configures the limited-main-memory evaluation of §5.1/§7:
// "it is simple to mark a parent as pointing to a subtree not currently in
// memory. Simply accumulate the tuples which would overlap this region of
// the tree and process them later." The time-line is cut into regions; each
// region's tuples are buffered (in memory, or spilled to disk relation
// files) and evaluated by an independent aggregation tree, so only one
// region's tree — not the whole relation's — is ever resident.
type PartitionOptions struct {
	// Boundaries are ascending cut points: partition i covers
	// [Boundaries[i-1], Boundaries[i]-1], with implicit 0 before the first
	// and ∞ after the last. Empty means a single partition (the plain
	// aggregation tree). See UniformBoundaries.
	Boundaries []interval.Time
	// SpillDir, when non-empty, buffers each partition's tuples in a
	// temporary relation file under this directory instead of in memory —
	// the out-of-core mode. The directory must exist.
	SpillDir string
	// Sink, when non-nil, receives each partition evaluator's counters
	// record as the partition finishes, so a partitioned or streaming
	// evaluation shows up shard by shard like any other run.
	Sink obs.Sink
	// Sweep evaluates each partition with the columnar event sweep
	// (NewSweepRange) instead of an aggregation tree. The planner sets it
	// for decomposable aggregates (COUNT/SUM/AVG); for MIN/MAX the shard
	// sweeps through the wedge and keeps its tree fallback.
	Sweep bool
	// Trace is the span-propagation context threaded into the partition
	// drain: when active, every shard records a child span carrying its
	// partition index, covered span, and §6 counter snapshot (and sweep
	// shards nest their own sort/scan spans under it). The zero value
	// disables span recording.
	Trace obs.TraceContext
}

// UniformBoundaries cuts the given finite lifespan into n equal-width
// partitions and returns the n-1 interior boundaries, for use in
// PartitionOptions. With n <= 1 or an open-ended lifespan it returns nil
// (a single partition).
func UniformBoundaries(lifespan interval.Interval, n int) []interval.Time {
	if n <= 1 || lifespan.End == interval.Forever {
		return nil
	}
	width := (lifespan.End - lifespan.Start + 1) / interval.Time(n)
	if width <= 0 {
		width = 1
	}
	var out []interval.Time
	for i := 1; i < n; i++ {
		b := lifespan.Start + interval.Time(i)*width
		if b > lifespan.End {
			break
		}
		out = append(out, b)
	}
	return out
}

// spans expands boundaries into the covered partition ranges.
func partitionSpans(boundaries []interval.Time) ([]interval.Interval, error) {
	prev := interval.Origin
	var spans []interval.Interval
	for i, b := range boundaries {
		if b <= prev {
			return nil, fmt.Errorf("core: partition boundary %d (%d) must exceed %d",
				i, b, prev)
		}
		spans = append(spans, interval.MustNew(prev, b-1))
		prev = b
	}
	spans = append(spans, interval.MustNew(prev, interval.Forever))
	return spans, nil
}

// StreamChunk is one partition's finished result: the partition's coalesced
// constant intervals, in time order. Chunks are emitted in partition order
// (ascending Index), so concatenating Rows across chunks yields the same
// partition-of-the-timeline EvaluatePartitioned returns.
type StreamChunk struct {
	// Index is the partition's position, 0-based and dense.
	Index int
	// Span is the time range the partition covers.
	Span interval.Interval
	// Rows are the partition's coalesced constant intervals.
	Rows []Row
}

// EvaluatePartitionedStream computes the instant-grouped temporal aggregate
// with bounded memory, one partition at a time. One pass routes each tuple
// to every partition it overlaps; then, for each partition in order, its
// tuples are evaluated, the result coalesced and handed to emit before the
// next partition starts, so only one partition's evaluator is ever
// resident. An error from emit stops the run and is returned. The Stats
// report the tuples routed and the largest partition's peak.
func EvaluatePartitionedStream(f aggregate.Func, ts []tuple.Tuple, opts PartitionOptions, emit func(StreamChunk) error) (Stats, error) {
	spans, err := partitionSpans(opts.Boundaries)
	if err != nil {
		return Stats{}, err
	}
	var bks buckets
	if opts.SpillDir != "" {
		bks, err = newSpillBuckets(opts.SpillDir, len(spans))
	} else {
		bks = newMemoryBuckets(len(spans))
	}
	if err != nil {
		return Stats{}, err
	}
	defer bks.cleanup()

	// Route pass: each tuple goes to every partition it overlaps. Partition
	// starts are sorted, so the overlapped range is contiguous.
	for _, t := range ts {
		if err := t.Valid.Validate(); err != nil {
			return Stats{}, err
		}
		for i := findSpan(spans, t.Valid.Start); i < len(spans) && spans[i].Start <= t.Valid.End; i++ {
			if err := bks.add(i, t); err != nil {
				return Stats{}, err
			}
		}
	}
	if err := bks.sealed(); err != nil {
		return Stats{}, err
	}

	stats := Stats{Tuples: len(ts)}
	for i, span := range spans {
		res, peak, err := evaluateBucket(f, span, bks, i, opts)
		if err != nil {
			return Stats{}, err
		}
		stats.PeakNodes = max(stats.PeakNodes, peak)
		if err := emit(StreamChunk{Index: i, Span: span, Rows: res.Coalesce().Rows}); err != nil {
			return Stats{}, err
		}
	}
	return stats, nil
}

// EvaluatePartitioned computes the instant-grouped temporal aggregate with
// bounded memory (§5.1/§7), collecting EvaluatePartitionedStream's chunks
// into one result.
//
// Constant intervals may be split at partition boundaries; Coalesce merges
// them back when values agree. The result still satisfies Validate and is
// value-equivalent (Equal) to the unpartitioned evaluation.
func EvaluatePartitioned(f aggregate.Func, ts []tuple.Tuple, opts PartitionOptions) (*Result, Stats, error) {
	out := &Result{Func: f}
	stats, err := EvaluatePartitionedStream(f, ts, opts, func(c StreamChunk) error {
		out.Rows = append(out.Rows, c.Rows...)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// findSpan returns the index of the partition containing t (binary search).
func findSpan(spans []interval.Interval, t interval.Time) int {
	lo, hi := 0, len(spans)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if spans[mid].End < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func evaluateBucket(f aggregate.Func, span interval.Interval, b buckets, i int, opts PartitionOptions) (*Result, int, error) {
	sp := opts.Trace.StartChild("shard")
	sp.SetAttr("partition", strconv.Itoa(i))
	sp.SetAttr("span", fmt.Sprintf("[%d,%d]", span.Start, span.End))
	defer sp.End()
	var ev Evaluator
	if opts.Sweep {
		// A sweep shard nests its own radix/scan spans under the shard span.
		ev = NewSweepRangeOptions(f, span, SweepOptions{Trace: sp.Context()})
	} else {
		ev = NewAggregationTreeRange(f, span)
	}
	ev.(sinkSetter).setSink(opts.Sink)
	if err := b.drain(i, ev.AddBatch); err != nil {
		return nil, 0, err
	}
	res, err := ev.Finish()
	if err != nil {
		return nil, 0, err
	}
	st := ev.Stats()
	sp.AddCounters(st.Tuples, st.LiveNodes, st.PeakNodes, st.Collected)
	return res, st.PeakNodes, nil
}

// buckets abstracts the per-partition tuple buffers.
type buckets interface {
	add(i int, t tuple.Tuple) error
	// sealed flips from the routing pass to the evaluation pass.
	sealed() error
	// drain replays partition i's tuples in pages of at most BatchPage,
	// feeding the evaluator's batch-ingestion path.
	drain(i int, fn func([]tuple.Tuple) error) error
	cleanup()
}

// memoryBuckets holds partition inputs in memory.
type memoryBuckets [][]tuple.Tuple

func newMemoryBuckets(n int) *memoryBuckets {
	b := make(memoryBuckets, n)
	return &b
}

func (b *memoryBuckets) add(i int, t tuple.Tuple) error {
	(*b)[i] = append((*b)[i], t)
	return nil
}

func (b *memoryBuckets) sealed() error { return nil }

func (b *memoryBuckets) drain(i int, fn func([]tuple.Tuple) error) error {
	ts := (*b)[i]
	for lo := 0; lo < len(ts); lo += BatchPage {
		hi := lo + BatchPage
		if hi > len(ts) {
			hi = len(ts)
		}
		if err := fn(ts[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (b *memoryBuckets) cleanup() {}

// spillBuckets buffers partition inputs in temporary relation files.
type spillBuckets struct {
	dir     string
	writers []*relation.FileWriter
	paths   []string
}

func newSpillBuckets(dir string, n int) (*spillBuckets, error) {
	tmp, err := os.MkdirTemp(dir, "tempagg-spill-")
	if err != nil {
		return nil, fmt.Errorf("core: spill: %w", err)
	}
	b := &spillBuckets{dir: tmp, writers: make([]*relation.FileWriter, n), paths: make([]string, n)}
	for i := range b.writers {
		b.paths[i] = filepath.Join(tmp, fmt.Sprintf("part-%04d.rel", i))
		w, err := relation.NewFileWriter(b.paths[i])
		if err != nil {
			b.cleanup()
			return nil, err
		}
		b.writers[i] = w
	}
	return b, nil
}

func (b *spillBuckets) add(i int, t tuple.Tuple) error {
	return b.writers[i].Append(t)
}

func (b *spillBuckets) sealed() error {
	for _, w := range b.writers {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (b *spillBuckets) drain(i int, fn func([]tuple.Tuple) error) error {
	sc, err := relation.Open(b.paths[i], relation.ScanOptions{})
	if err != nil {
		return err
	}
	defer sc.Close()
	page := make([]tuple.Tuple, 0, BatchPage)
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		page = append(page, t)
		if len(page) == BatchPage {
			if err := fn(page); err != nil {
				return err
			}
			page = page[:0]
		}
	}
	if len(page) > 0 {
		return fn(page)
	}
	return nil
}

func (b *spillBuckets) cleanup() {
	for _, w := range b.writers {
		if w != nil {
			//tempagglint:ignore errdrop best-effort teardown: the bucket files are removed below
			w.Close()
		}
	}
	os.RemoveAll(b.dir)
}
