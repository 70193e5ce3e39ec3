package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// TupleIterator is a forward-only tuple stream; TupleSource adds rescan.
type TupleIterator interface {
	Next() (t tuple.Tuple, ok bool, err error)
}

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
	// Parallel is the number of partitions evaluated concurrently; values
	// below 2 mean serial evaluation (a single worker). Peak memory scales
	// with the worker count. See partitionWorkers for the exact resolution.
	Parallel int
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

// partitionWorkers resolves PartitionOptions.Parallel to a worker count.
// Values below 2 mean serial evaluation — exactly one worker — and the
// count never exceeds the number of partitions (extra workers would idle).
func partitionWorkers(parallel, partitions int) int {
	workers := 1
	if parallel >= 2 {
		workers = parallel
	}
	if workers > partitions {
		workers = partitions
	}
	return workers
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
// constant intervals, in time order. Chunks arrive on the stream in
// partition order (ascending Index), so concatenating Rows across chunks
// yields the same partition-of-the-timeline a non-streaming evaluation
// returns.
type StreamChunk struct {
	// Index is the partition's position, 0-based and dense.
	Index int
	// Span is the time range the partition covers.
	Span interval.Interval
	// Rows are the partition's coalesced constant intervals.
	Rows []Row
}

// PartitionStream is a running partitioned evaluation delivering per-
// partition results as they complete. Consume Chunks until it closes, then
// call Wait for the run's statistics and first error. Cancel abandons the
// evaluation early; Wait remains safe to call after it.
type PartitionStream struct {
	ch   chan StreamChunk
	stop chan struct{}
	once sync.Once
	done chan struct{}

	stats Stats
	err   error
}

// Chunks returns the ordered chunk channel. It is closed when every
// partition has been delivered, an evaluation error occurred, or the stream
// was canceled.
func (s *PartitionStream) Chunks() <-chan StreamChunk { return s.ch }

// Cancel abandons the evaluation: workers stop after their current
// partition and the chunk channel closes. Safe to call more than once and
// concurrently with consumption.
func (s *PartitionStream) Cancel() { s.once.Do(func() { close(s.stop) }) }

// Wait blocks until the evaluation has fully shut down and returns the
// run's statistics (total tuples routed, largest single-partition peak) and
// the first evaluation error. It drains any undelivered chunks, so it is
// safe to call with chunks outstanding.
func (s *PartitionStream) Wait() (Stats, error) {
	for range s.ch {
		// Drain whatever the consumer did not read so the emitter can exit.
	}
	<-s.done
	return s.stats, s.err
}

// EvaluatePartitionedStream computes the instant-grouped temporal aggregate
// with bounded memory, delivering each partition's coalesced constant
// intervals as soon as that partition finishes — there is no barrier
// between partition evaluation and result delivery. The routing pass runs
// synchronously (routing errors are returned here); the evaluation pass
// runs on partitionWorkers(opts.Parallel, …) goroutines behind a bounded
// channel, with a reorder buffer keeping delivery in partition order.
func EvaluatePartitionedStream(f aggregate.Func, it TupleIterator, opts PartitionOptions) (*PartitionStream, error) {
	spans, err := partitionSpans(opts.Boundaries)
	if err != nil {
		return nil, err
	}
	var bks buckets
	if opts.SpillDir != "" {
		bks, err = newSpillBuckets(opts.SpillDir, len(spans))
	} else {
		bks = newMemoryBuckets(len(spans))
	}
	if err != nil {
		return nil, err
	}

	// Route pass: each tuple goes to every partition it overlaps. Partition
	// starts are sorted, so the overlapped range is contiguous.
	total := 0
	for {
		t, ok, err := it.Next()
		if err != nil {
			bks.cleanup()
			return nil, fmt.Errorf("core: partition routing: %w", err)
		}
		if !ok {
			break
		}
		if err := t.Valid.Validate(); err != nil {
			bks.cleanup()
			return nil, err
		}
		total++
		for i := findSpan(spans, t.Valid.Start); i < len(spans) && spans[i].Start <= t.Valid.End; i++ {
			if err := bks.add(i, t); err != nil {
				bks.cleanup()
				return nil, err
			}
		}
	}
	if err := bks.sealed(); err != nil {
		bks.cleanup()
		return nil, err
	}

	workers := partitionWorkers(opts.Parallel, len(spans))
	st := &PartitionStream{
		ch:   make(chan StreamChunk, workers),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	st.stats.Tuples = total

	type partResult struct {
		i    int
		rows []Row
		peak int
		err  error
	}
	resCh := make(chan partResult, workers)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, peak, err := evaluateBucket(f, spans[i], bks, i, opts)
				pr := partResult{i: i, peak: peak, err: err}
				if err == nil {
					pr.rows = res.Coalesce().Rows
				}
				select {
				case resCh <- pr:
				case <-st.stop:
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := range spans {
			select {
			case work <- i:
			case <-st.stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Emitter: reorder worker completions into partition order and deliver
	// each chunk the moment its predecessors are out. A shard that finishes
	// early is held only until the partitions before it are done — never
	// until the whole evaluation is.
	go func() {
		pending := make(map[int][]Row, workers)
		next := 0
		for pr := range resCh {
			if pr.err != nil {
				if st.err == nil {
					st.err = pr.err
				}
				st.Cancel()
				continue
			}
			if pr.peak > st.stats.PeakNodes {
				st.stats.PeakNodes = pr.peak
			}
			pending[pr.i] = pr.rows
			for {
				rows, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case st.ch <- StreamChunk{Index: next, Span: spans[next], Rows: rows}:
				case <-st.stop:
				}
				next++
			}
		}
		bks.cleanup()
		close(st.ch)
		close(st.done)
	}()
	return st, nil
}

// EvaluatePartitioned computes the instant-grouped temporal aggregate with
// bounded memory: tuples are routed (clipped) to time partitions in one
// scan, then each partition is evaluated by its own aggregation tree. It is
// the materializing consumer of EvaluatePartitionedStream. The returned
// Stats report the *largest single-partition* peak, which is the
// resident-memory bound when evaluation is serial.
//
// Constant intervals may be split at partition boundaries; Coalesce merges
// them back when values agree. The result still satisfies Validate and is
// value-equivalent (Equal) to the unpartitioned evaluation.
func EvaluatePartitioned(f aggregate.Func, it TupleIterator, opts PartitionOptions) (*Result, Stats, error) {
	st, err := EvaluatePartitionedStream(f, it, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := &Result{Func: f}
	for chunk := range st.Chunks() {
		out.Rows = append(out.Rows, chunk.Rows...)
	}
	stats, err := st.Wait()
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// EvaluatePartitionedTuples is EvaluatePartitioned over an in-memory slice.
func EvaluatePartitionedTuples(f aggregate.Func, ts []tuple.Tuple, opts PartitionOptions) (*Result, Stats, error) {
	return EvaluatePartitioned(f, NewSliceSource(ts), opts)
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
	// feeding the evaluator's batch-ingestion path; safe to call
	// concurrently for distinct i.
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
