// Live evaluation: one shared evaluator answering snapshot-consistent
// aggregate reads while tuples keep arriving.
//
// The batch evaluators of this package own their input: ingest, Finish,
// read, discard. LiveEvaluator instead keeps the relation resident as a
// sequence of sealed immutable segments plus one mutable tail, and hands
// out epoch snapshots — a seqno, the sealed-segment set, and a tail
// watermark — that readers evaluate against without ever blocking the
// writers. Per-segment constant-interval results are computed once by the
// columnar sweep (MIN/MAX through its value-ordered wedge) and merged with
// the decomposable partial-state machinery (aggregate.Func.Merge), so a
// snapshot read costs one small tail sweep plus one partition merge, not a
// re-evaluation of everything ever ingested.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// DefaultLiveSegmentSize is the tail capacity at which a live evaluator
// seals the tail into an immutable segment. Sized like BatchPage's order of
// magnitude: big enough that per-segment sweep results amortize, small
// enough that a snapshot's fresh tail sweep stays microseconds.
const DefaultLiveSegmentSize = 1024

// ErrLiveClosed is returned by ingestion and snapshot calls on a closed
// LiveEvaluator. Snapshots taken before Close remain fully readable: they
// reference only immutable state.
var ErrLiveClosed = errors.New("core: live evaluator is closed")

// LiveOptions parameterizes a LiveEvaluator.
type LiveOptions struct {
	// SegmentSize is the number of tuples per sealed segment; 0 means
	// DefaultLiveSegmentSize.
	SegmentSize int
}

// LiveGauges is the epoch telemetry a LiveEvaluator publishes through the
// hook installed with SetGaugeHook: the admitted-tuple seqno, the sealed
// segment count, and the current tail fill.
type LiveGauges struct {
	Seq      int64
	Segments int
	Tail     int
}

// liveTail is the mutable ingestion buffer. Columns are allocated at full
// segment capacity up front so appends never reallocate: a reader holding
// an older watermark keeps indexing the same backing arrays, whose first n
// entries are immutable once n is published. The watermark store/load pair
// is the only synchronization between one writer and any number of readers
// — the element writes at index w happen-before the n.Store(w+1) that
// publishes them.
type liveTail struct {
	n      atomic.Int64 // published tuple count; only the writer stores
	names  []string
	vals   []int64
	starts []interval.Time
	ends   []interval.Time
}

func newLiveTail(capacity int) *liveTail {
	return &liveTail{
		names:  make([]string, capacity),
		vals:   make([]int64, capacity),
		starts: make([]interval.Time, capacity),
		ends:   make([]interval.Time, capacity),
	}
}

// liveSegment is one sealed, immutable run of ingested tuples, with its
// per-aggregate constant-interval result memoized on first read.
type liveSegment struct {
	names  []string
	vals   []int64
	starts []interval.Time
	ends   []interval.Time

	once [5]sync.Once // indexed by aggregate.Kind
	res  [5]*Result
	err  [5]error

	// The segment's partial-state interval index (index.go), built once on
	// first range read and reused across every later epoch — the segment is
	// immutable, so the index never invalidates (S37).
	idxOnce sync.Once
	idx     *IntervalIndex
	idxErr  error
}

func (g *liveSegment) len() int { return len(g.names) }

// tuples materializes the segment's rows.
func (g *liveSegment) tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, len(g.names))
	for i := range g.names {
		// The columns were validated at ingest, so MustNew cannot panic.
		out[i] = tuple.MustNew(g.names[i], g.vals[i], g.starts[i], g.ends[i])
	}
	return out
}

// index builds (once) the segment's partial-state interval index, shared
// by every snapshot and aggregate kind: one tree answers range reads for
// all five aggregates, so a windowed read touches O(log n) partials per
// sealed segment instead of merging full per-segment results.
func (g *liveSegment) index() (*IntervalIndex, error) {
	g.idxOnce.Do(func() {
		g.idx, g.idxErr = NewIntervalIndex(g.tuples())
	})
	return g.idx, g.idxErr
}

// result computes (once per aggregate kind) the segment's constant-interval
// result with a batch sweep: the decomposable aggregates run the signed-
// delta event path, MIN/MAX the wedge. The memoized rows are immutable;
// callers merge them, never mutate them.
func (g *liveSegment) result(f aggregate.Func) (*Result, error) {
	k := f.Kind()
	g.once[k].Do(func() {
		ev := NewSweep(f)
		ts := g.tuples()
		for lo := 0; lo < len(ts); lo += BatchPage {
			hi := min(lo+BatchPage, len(ts))
			if err := ev.AddBatch(ts[lo:hi]); err != nil {
				g.err[k] = err
				return
			}
		}
		g.res[k], g.err[k] = ev.Finish()
	})
	return g.res[k], g.err[k]
}

// liveState is one immutable generation of the evaluator: the sealed
// segments, the current tail, and the seqno base (tuples in sealed
// segments). Sealing installs a fresh liveState; appends mutate only the
// tail's columns below its published watermark successor. A reader that
// loads the state pointer and then the tail watermark always observes a
// consistent prefix of the ingestion order — a sealed tail's watermark is
// frozen one short of capacity (its last admit is published by the seal),
// so a stale state still denotes exactly the tuples admitted at that epoch.
type liveState struct {
	segs []*liveSegment
	tail *liveTail
	base int64
}

// livePrefix memoizes the merge of the first upTo sealed segments' results
// for one aggregate kind. Segments are append-only, so the memo only ever
// advances; a snapshot older than the memo falls back to a direct merge.
type livePrefix struct {
	mu   sync.Mutex
	upTo int
	res  *Result
}

// LiveEvaluator answers snapshot-consistent temporal aggregate reads while
// ingestion proceeds. Writers (Add/AddBatch) are serialized by an internal
// mutex; Snapshot and all reads through the returned LiveSnapshot are
// lock-free with respect to writers and safe from any number of
// goroutines. The evaluator is aggregate-agnostic: one ingestion stream
// serves reads for all five aggregate kinds.
//
// After Close, Add, AddBatch, and Snapshot return ErrLiveClosed and the
// evaluator must not be reused (tempagglint's finishonce analyzer enforces
// this like the batch evaluators' Finish contract). Stats stays legal at
// any point, and snapshots taken before Close remain readable.
type LiveEvaluator struct {
	noCopy noCopy

	segSize int
	mu      sync.Mutex // serializes writers, sealing, and Close
	state   atomic.Pointer[liveState]
	closed  atomic.Bool
	stats   statsCell
	prefix  [5]livePrefix // indexed by aggregate.Kind

	hook  func(LiveGauges)
	seals atomic.Int64
}

// NewLive returns a live evaluator with the given options.
func NewLive(opts LiveOptions) *LiveEvaluator {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultLiveSegmentSize
	}
	e := &LiveEvaluator{segSize: opts.SegmentSize}
	e.state.Store(&liveState{tail: newLiveTail(opts.SegmentSize)})
	return e
}

// SetGaugeHook installs the epoch-telemetry callback, invoked after every
// AddBatch (and every seal) with the current seqno, segment count, and tail
// fill. The hook runs on the writer's goroutine under the ingestion lock —
// it must be cheap (the metrics gauges it feeds are atomics).
func (e *LiveEvaluator) SetGaugeHook(fn func(LiveGauges)) {
	e.mu.Lock()
	e.hook = fn
	e.mu.Unlock()
}

// Seals reports how many segments have been sealed so far.
func (e *LiveEvaluator) Seals() int64 { return e.seals.Load() }

// Add ingests one tuple.
func (e *LiveEvaluator) Add(t tuple.Tuple) error {
	return e.AddBatch([]tuple.Tuple{t})
}

// AddBatch ingests a page of tuples in order. On an invalid tuple it stops
// and returns the error; tuples before the failing one are admitted, as
// under per-tuple Add. Concurrent AddBatch calls are serialized; their
// pages interleave atomically.
func (e *LiveEvaluator) AddBatch(ts []tuple.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrLiveClosed
	}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			e.publishLocked()
			return fmt.Errorf("core: live add: %w", err)
		}
		st := e.state.Load()
		w := st.tail.n.Load()
		st.tail.names[w] = t.Name
		st.tail.vals[w] = t.Value
		st.tail.starts[w] = t.Valid.Start
		st.tail.ends[w] = t.Valid.End
		e.stats.addTuple()
		// Cost model: one arrival and one departure event per resident
		// tuple, 16 bytes each — the sweep's columnar accounting.
		e.stats.grow(2)
		if int(w+1) == e.segSize {
			// The filling admit is published by the seal, not by the
			// watermark, so no epoch ever shows a full tail.
			e.sealLocked(st, int(w+1))
		} else {
			st.tail.n.Store(w + 1)
		}
	}
	e.publishLocked()
	return nil
}

// sealLocked freezes the first n tail entries — the full tail, its last
// admit not yet published — into an immutable segment and installs a fresh
// generation with an empty tail. Caller holds e.mu.
func (e *LiveEvaluator) sealLocked(st *liveState, n int) {
	seg := &liveSegment{
		names:  st.tail.names[:n:n],
		vals:   st.tail.vals[:n:n],
		starts: st.tail.starts[:n:n],
		ends:   st.tail.ends[:n:n],
	}
	segs := make([]*liveSegment, len(st.segs)+1)
	copy(segs, st.segs)
	segs[len(st.segs)] = seg
	e.state.Store(&liveState{
		segs: segs,
		tail: newLiveTail(e.segSize),
		base: st.base + int64(n),
	})
	e.seals.Add(1)
}

// publishLocked pushes the current epoch telemetry through the gauge hook.
// Caller holds e.mu.
func (e *LiveEvaluator) publishLocked() {
	if e.hook == nil {
		return
	}
	st := e.state.Load()
	w := st.tail.n.Load()
	e.hook(LiveGauges{Seq: st.base + w, Segments: len(st.segs), Tail: int(w)})
}

// Snapshot captures the current epoch — seqno, sealed-segment set, and
// tail watermark — without blocking ingestion: two atomic loads, no locks.
// Reads through the returned snapshot observe exactly the tuples admitted
// at that epoch, bit-identical to a batch evaluation over that prefix,
// regardless of how far ingestion advances afterwards.
func (e *LiveEvaluator) Snapshot() (*LiveSnapshot, error) {
	if e.closed.Load() {
		return nil, ErrLiveClosed
	}
	st := e.state.Load()
	w := st.tail.n.Load()
	return &LiveSnapshot{ev: e, state: st, tailLen: w, seq: st.base + w}, nil
}

// Stats reports ingestion counters; safe to call from any goroutine at any
// time, Close included (the counters are atomics, like every evaluator's).
func (e *LiveEvaluator) Stats() Stats { return e.stats.snapshot() }

// Close stops ingestion: subsequent Add, AddBatch, and Snapshot calls
// return ErrLiveClosed. Resident-node accounting moves to collected.
// Snapshots taken before Close stay valid — they hold only immutable
// state. Close is idempotent.
func (e *LiveEvaluator) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Swap(true) {
		return nil
	}
	if live := e.stats.snapshot().LiveNodes; live > 0 {
		e.stats.reclaim(live)
	}
	return nil
}

// prefixResult returns the merged constant-interval result of the given
// sealed segments for f, advancing the per-kind memo when the request is
// at (or ahead of) the memo's frontier. A snapshot older than the frontier
// merges its segments' memoized results directly — correctness never
// depends on the cache.
func (e *LiveEvaluator) prefixResult(f aggregate.Func, segs []*liveSegment) (*Result, error) {
	p := &e.prefix[f.Kind()]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.upTo <= len(segs) {
		fresh, err := segResults(f, segs[p.upTo:])
		if err != nil {
			return nil, err
		}
		if len(fresh) > 0 {
			adv := mergeAll(f, fresh)
			if p.res == nil {
				p.res = adv
			} else {
				p.res = mergeResults(f, p.res, adv)
			}
			p.upTo = len(segs)
		}
		if p.res == nil {
			return emptyResult(f), nil
		}
		return p.res, nil
	}
	rs, err := segResults(f, segs)
	if err != nil {
		return nil, err
	}
	return mergeAll(f, rs), nil
}

// segResults collects the (memoized) per-segment results for f.
func segResults(f aggregate.Func, segs []*liveSegment) ([]*Result, error) {
	rs := make([]*Result, len(segs))
	for i, g := range segs {
		sr, err := g.result(f)
		if err != nil {
			return nil, err
		}
		rs[i] = sr
	}
	return rs, nil
}
