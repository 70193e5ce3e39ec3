package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
	"tempagg/internal/workload"
)

// This file is the differential-oracle harness: every evaluation strategy,
// over every aggregate and every Table 3 workload shape, must agree with the
// O(n²) Reference oracle — plus metamorphic properties (time-shift
// invariance, partition-concatenation equivalence, order-insensitivity)
// that hold by the definition of the temporal aggregate regardless of what
// the oracle says. Relation sizes are kept small because Reference is
// quadratic by design; the interesting structure (splits, GC, partition
// boundaries, arena reuse) is fully exercised well below 1K tuples.

// diffStrategy is one evaluation strategy under differential test.
type diffStrategy struct {
	name string
	// run evaluates ts; k is the input's disorder bound (len(ts) when the
	// order is unknown), for the strategies that need it.
	run func(t *testing.T, f aggregate.Func, ts []tuple.Tuple, k int) (*Result, error)
}

func runSpec(spec Spec) func(*testing.T, aggregate.Func, []tuple.Tuple, int) (*Result, error) {
	return func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
		res, _, err := Run(spec, f, ts)
		return res, err
	}
}

func runPartitioned(opts PartitionOptions) func(*testing.T, aggregate.Func, []tuple.Tuple, int) (*Result, error) {
	return func(t *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
		o := opts
		if o.SpillDir == "spill" {
			o.SpillDir = t.TempDir()
		}
		res, _, err := EvaluatePartitioned(f, ts, o)
		return res, err
	}
}

// runPartitionedStreamAtProcs streams a partitioned evaluation with
// runtime.GOMAXPROCS set to procs (restored after) and fails the test
// unless the chunks arrive dense and ascending and their rows are
// EvaluatePartitioned's one for one: the answer depends neither on the
// core count nor on whether the caller streams or collects.
func runPartitionedStreamAtProcs(procs int, opts PartitionOptions) func(*testing.T, aggregate.Func, []tuple.Tuple, int) (*Result, error) {
	return func(t *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
		want, _, err := EvaluatePartitioned(f, ts, opts)
		if err != nil {
			return nil, err
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res := &Result{Func: f}
		next := 0
		_, err = EvaluatePartitionedStream(f, ts, opts, func(c StreamChunk) error {
			if c.Index != next {
				t.Fatalf("chunk index %d, want %d", c.Index, next)
			}
			next++
			res.Rows = append(res.Rows, c.Rows...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("GOMAXPROCS=%d: stream emitted %d rows, collector %d", procs, len(res.Rows), len(want.Rows))
		}
		for i, row := range res.Rows {
			if row.Interval != want.Rows[i].Interval || !f.StateEqual(row.State, want.Rows[i].State) {
				t.Fatalf("GOMAXPROCS=%d: row %d is %v, collector's is %v", procs, i, row, want.Rows[i])
			}
		}
		return res, nil
	}
}

// runSweepAtProcs runs a defaulted sweep with runtime.GOMAXPROCS set to
// procs (restored after) and fails the test unless it emits the aggregation
// tree's rows one for one: the same intervals, uncoalesced, with equal
// states.
func runSweepAtProcs(procs int) func(*testing.T, aggregate.Func, []tuple.Tuple, int) (*Result, error) {
	return func(t *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
		tree, _, err := Run(Spec{Algorithm: AggregationTree}, f, ts)
		if err != nil {
			return nil, err
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, _, err := Run(Spec{Algorithm: SweepEval}, f, ts)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != len(tree.Rows) {
			t.Fatalf("GOMAXPROCS=%d: sweep emitted %d rows, aggregation tree %d", procs, len(res.Rows), len(tree.Rows))
		}
		for i, row := range res.Rows {
			if row.Interval != tree.Rows[i].Interval || !f.StateEqual(row.State, tree.Rows[i].State) {
				t.Fatalf("GOMAXPROCS=%d: row %d is %v, aggregation tree's is %v", procs, i, row, tree.Rows[i])
			}
		}
		return res, nil
	}
}

func diffStrategies(boundaries []interval.Time) []diffStrategy {
	return []diffStrategy{
		{"tuma", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			return Tuma(NewSliceSource(ts), f)
		}},
		{"linked-list", runSpec(Spec{Algorithm: LinkedList})},
		{"aggregation-tree", runSpec(Spec{Algorithm: AggregationTree})},
		{"balanced-tree", runSpec(Spec{Algorithm: BalancedTree})},
		{"k-ordered-tree", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, k int) (*Result, error) {
			res, _, err := Run(Spec{Algorithm: KOrderedTree, K: k}, f, ts)
			return res, err
		}},
		{"sweep", runSpec(Spec{Algorithm: SweepEval})},
		// WedgeBound 1 forces the MIN/MAX wedge into the aggregation-tree
		// fallback on any overlap, so the escape hatch is diffed against the
		// oracle as thoroughly as the sweep itself (decomposable aggregates
		// never consult the bound and run the normal event path).
		{"sweep-forced-fallback", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			ev := NewSweep(f)
			ev.WedgeBound = 1
			for lo := 0; lo < len(ts); lo += BatchPage {
				hi := min(lo+BatchPage, len(ts))
				if err := ev.AddBatch(ts[lo:hi]); err != nil {
					return nil, err
				}
			}
			return ev.Finish()
		}},
		// The sweep with 1, 2 and 8 procs available. Its rows must be the
		// aggregation tree's row for row, not merely value-equivalent: no
		// answer may depend on the machine's core count.
		{"sweep-parallel=1", runSweepAtProcs(1)},
		{"sweep-parallel=2", runSweepAtProcs(2)},
		{"sweep-parallel=8", runSweepAtProcs(8)},
		// The live evaluator read at its final epoch. SegmentSize 32 forces
		// several seal boundaries and a partial tail at the oracle's sizes,
		// so the segment-merge path and the tail sweep are both in play.
		{"live-snapshot", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			ev := NewLive(LiveOptions{SegmentSize: 32})
			defer closeLive(ev)
			if err := ev.AddBatch(ts); err != nil {
				return nil, err
			}
			snap, err := ev.Snapshot()
			if err != nil {
				return nil, err
			}
			return snap.Result(f)
		}},
		// Same read, but taken mid-stream first: a snapshot at the halfway
		// epoch is held and verified against the oracle over exactly that
		// prefix, then ingestion continues and the final epoch is returned.
		// This pins the consistency claim — the held snapshot must not see
		// the second half — and exercises the prefix-memo fallback, since
		// the old snapshot is read after the memo advanced past it.
		{"live-midstream-snapshot", func(t *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			ev := NewLive(LiveOptions{SegmentSize: 32})
			defer closeLive(ev)
			half := len(ts) / 2
			if err := ev.AddBatch(ts[:half]); err != nil {
				return nil, err
			}
			mid, err := ev.Snapshot()
			if err != nil {
				return nil, err
			}
			if err := ev.AddBatch(ts[half:]); err != nil {
				return nil, err
			}
			snap, err := ev.Snapshot()
			if err != nil {
				return nil, err
			}
			res, err := snap.Result(f)
			if err != nil {
				return nil, err
			}
			midRes, err := mid.Result(f)
			if err != nil {
				return nil, err
			}
			if want := Reference(f, ts[:half]); !midRes.Equal(want) {
				t.Fatalf("mid-stream snapshot saw tuples past its epoch:\ngot:\n%s\nwant:\n%s", midRes, want)
			}
			return res, nil
		}},
		// The materialized partial-state interval index read over the whole
		// time-line: every elementary interval's state is a root-path merge
		// of node partials, so this diffs the canonical-node assignment and
		// the per-kind State reconstitution against the oracle. Windowed
		// lookups are diffed separately (TestIndexRangePositions).
		{"index-lookup", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			idx, err := NewIntervalIndex(ts)
			if err != nil {
				return nil, err
			}
			return idx.Result(f)
		}},
		// The live indexed range read at full span: sealed segments answer
		// from their memoized per-segment indexes, the tail prefix is swept,
		// and the window partitions are merged — the mixed index+tail path a
		// live VALID OVERLAPS query takes (S37).
		{"index-live-tail", func(_ *testing.T, f aggregate.Func, ts []tuple.Tuple, _ int) (*Result, error) {
			ev := NewLive(LiveOptions{SegmentSize: 32})
			defer closeLive(ev)
			if err := ev.AddBatch(ts); err != nil {
				return nil, err
			}
			snap, err := ev.Snapshot()
			if err != nil {
				return nil, err
			}
			return snap.RangeIndexed(f, interval.Universe())
		}},
		{"partitioned-serial", runPartitioned(PartitionOptions{Boundaries: boundaries})},
		// The stream at GOMAXPROCS 4: chunk by chunk, the collector's rows.
		{"partitioned-parallel", runPartitionedStreamAtProcs(4, PartitionOptions{Boundaries: boundaries})},
		{"partitioned-spill", runPartitioned(PartitionOptions{Boundaries: boundaries, SpillDir: "spill"})},
		{"partitioned-sweep", runPartitioned(PartitionOptions{Boundaries: boundaries, Sweep: true})},
	}
}

// diffWorkload is one Table 3 workload shape at differential-test scale.
type diffWorkload struct {
	name string
	cfg  workload.Config
	// k bounds the relation's disorder for the k-ordered tree.
	k func(n int) int
	// large, when set, adds one relation of that many tuples to the
	// workload's sizes: enough events that a sweep which split its work by
	// the core count would have split this one.
	large int
}

func diffWorkloads() []diffWorkload {
	const lifespan = 4000 // small lifespan → dense overlaps and many splits
	return []diffWorkload{
		{"sorted", workload.Config{Lifespan: lifespan, Order: workload.Sorted},
			func(int) int { return 1 }, 0},
		{"sorted-longlived", workload.Config{Lifespan: lifespan, Order: workload.Sorted, LongLivedPct: 80},
			func(int) int { return 1 }, 0},
		{"k-ordered", workload.Config{Lifespan: lifespan, Order: workload.KOrdered, K: 4, KPct: 0.08},
			func(int) int { return 4 }, 0},
		{"k-ordered-longlived", workload.Config{Lifespan: lifespan, Order: workload.KOrdered, K: 4, KPct: 0.08, LongLivedPct: 80},
			func(int) int { return 4 }, 0},
		{"random", workload.Config{Lifespan: lifespan, Order: workload.Random},
			func(n int) int { return n }, 4096},
		{"random-longlived", workload.Config{Lifespan: lifespan, Order: workload.Random, LongLivedPct: 80},
			func(n int) int { return n }, 0},
	}
}

// TestDifferentialOracle: every strategy × every aggregate × every workload
// shape must produce a valid partition of the time-line that is value-
// equivalent to the Reference oracle.
func TestDifferentialOracle(t *testing.T) {
	boundaries := []interval.Time{500, 1500, 3000}
	for _, wl := range diffWorkloads() {
		sizes := []int{0, 1, 37, 160}
		if wl.large > 0 {
			sizes = append(sizes, wl.large)
		}
		for _, n := range sizes {
			cfg := wl.cfg
			cfg.Tuples = n
			cfg.Seed = int64(1000 + n)
			rel, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", wl.name, n, err)
			}
			for _, kind := range aggregate.Kinds() {
				f := aggregate.For(kind)
				want := Reference(f, rel.Tuples)
				for _, s := range diffStrategies(boundaries) {
					t.Run(fmt.Sprintf("%s/n=%d/%v/%s", wl.name, n, kind, s.name), func(t *testing.T) {
						got, err := s.run(t, f, rel.Tuples, wl.k(n))
						if err != nil {
							t.Fatal(err)
						}
						if err := got.Validate(); err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want) {
							t.Fatalf("result differs from oracle:\ngot:\n%s\nwant:\n%s", got, want)
						}
					})
				}
			}
		}
	}
}

// shiftTuples returns ts with every interval moved delta instants later.
func shiftTuples(ts []tuple.Tuple, delta interval.Time) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ts))
	for i, tu := range ts {
		end := tu.Valid.End
		if end != interval.Forever {
			end += delta
		}
		out[i] = tuple.MustNew(tu.Name, tu.Value, tu.Valid.Start+delta, end)
	}
	return out
}

// TestMetamorphicTimeShift: shifting every tuple by Δ shifts the aggregate
// by Δ — the value at instant t+Δ of the shifted evaluation equals the
// value at t of the original, at every constant-interval boundary.
func TestMetamorphicTimeShift(t *testing.T) {
	const delta interval.Time = 7919
	r := rand.New(rand.NewSource(71))
	for _, spec := range []Spec{
		{Algorithm: LinkedList},
		{Algorithm: AggregationTree},
		{Algorithm: BalancedTree},
		{Algorithm: SweepEval},
	} {
		for _, kind := range aggregate.Kinds() {
			f := aggregate.For(kind)
			ts := randomTuples(r, 120, 3000)
			base, _, err := Run(spec, f, ts)
			if err != nil {
				t.Fatal(err)
			}
			shifted, _, err := Run(spec, f, shiftTuples(ts, delta))
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range base.Rows {
				for _, at := range []interval.Time{row.Interval.Start, row.Interval.End} {
					if at == interval.Forever {
						at = row.Interval.Start
					}
					want, ok := base.At(at)
					got, ok2 := shifted.At(at + delta)
					if !ok || !ok2 || got != want {
						t.Fatalf("%v/%v: value at %d+Δ = %v (ok=%v), want %v (ok=%v)",
							spec.Algorithm, kind, at, got, ok2, want, ok)
					}
				}
			}
		}
	}
}

// TestMetamorphicPartitionConcat: the streaming partitioned evaluation must
// deliver dense, ascending, span-aligned chunks whose concatenation is the
// unpartitioned result — the partition-concatenation equivalence.
func TestMetamorphicPartitionConcat(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	f := aggregate.For(aggregate.Sum)
	ts := randomTuples(r, 250, 4000)
	boundaries := []interval.Time{400, 900, 2000, 3100}
	spans, err := partitionSpans(boundaries)
	if err != nil {
		t.Fatal(err)
	}
	concat := &Result{Func: f}
	next := 0
	stats, err := EvaluatePartitionedStream(f, ts, PartitionOptions{Boundaries: boundaries}, func(chunk StreamChunk) error {
		if chunk.Index != next {
			t.Fatalf("chunk index %d, want %d (chunks must arrive dense and ascending)", chunk.Index, next)
		}
		if chunk.Span != spans[chunk.Index] {
			t.Fatalf("chunk %d span %v, want %v", chunk.Index, chunk.Span, spans[chunk.Index])
		}
		part := &Result{Func: f, Rows: chunk.Rows}
		if err := part.ValidatePartition(chunk.Span.Start, chunk.Span.End); err != nil {
			t.Fatalf("chunk %d: %v", chunk.Index, err)
		}
		concat.Rows = append(concat.Rows, chunk.Rows...)
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(spans) {
		t.Fatalf("received %d chunks, want %d", next, len(spans))
	}
	if stats.Tuples != len(ts) {
		t.Fatalf("stats.Tuples = %d, want %d", stats.Tuples, len(ts))
	}
	whole, _, err := Run(Spec{Algorithm: AggregationTree}, f, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := concat.Validate(); err != nil {
		t.Fatal(err)
	}
	if !concat.Equal(whole) {
		t.Fatal("concatenated chunks differ from the unpartitioned evaluation")
	}
}

// TestMetamorphicOrderInsensitivity: for the order-insensitive evaluators,
// any permutation of the input yields the same result.
func TestMetamorphicOrderInsensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, spec := range []Spec{
		{Algorithm: LinkedList},
		{Algorithm: AggregationTree},
		{Algorithm: BalancedTree},
		{Algorithm: SweepEval},
	} {
		for _, kind := range aggregate.Kinds() {
			f := aggregate.For(kind)
			ts := randomTuples(r, 150, 3000)
			base, _, err := Run(spec, f, ts)
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]tuple.Tuple(nil), ts...)
			r.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			permuted, _, err := Run(spec, f, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if !permuted.Equal(base) {
				t.Fatalf("%v/%v: permuting the input changed the result", spec.Algorithm, kind)
			}
		}
	}
}
