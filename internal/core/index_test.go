package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
	"tempagg/internal/workload"
)

// windowsFor returns lookup windows at every structurally distinct position
// relative to the relation's event horizon: the full time-line, a prefix, a
// suffix to ∞, interior slices landing on and between event boundaries,
// single instants, and a window entirely past every event.
func windowsFor(horizon int64) []interval.Interval {
	h := interval.Time(horizon)
	return []interval.Interval{
		interval.Universe(),
		interval.MustNew(0, 0),
		interval.MustNew(0, h/2),
		interval.MustNew(h/3, h-1),
		interval.MustNew(h/2, interval.Forever),
		interval.MustNew(h/4+1, h/4+1),
		interval.MustNew(1, h),
		interval.MustNew(2*h, 3*h),
	}
}

// TestIndexRangePositions diffs windowed index lookups against the clipped
// oracle for every aggregate kind, workload shape, and window position —
// the range-restricted complement of the full-timeline "index-lookup"
// differential row.
func TestIndexRangePositions(t *testing.T) {
	const horizon = 400
	r := rand.New(rand.NewSource(7))
	inputs := [][]tuple.Tuple{
		nil,
		randomTuples(r, 1, horizon),
		randomTuples(r, 37, horizon),
		randomTuples(r, 160, horizon),
	}
	for _, ts := range inputs {
		idx, err := NewIntervalIndex(ts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range aggregate.Kinds() {
			f := aggregate.For(k)
			for _, w := range windowsFor(horizon) {
				got, err := idx.Range(f, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.ValidatePartition(w.Start, w.End); err != nil {
					t.Fatalf("n=%d %v %v: %v", len(ts), k, w, err)
				}
				want := Reference(f, ts).Clip(w)
				if !got.Equal(want) {
					t.Fatalf("n=%d %v window %v: index lookup differs from clipped oracle", len(ts), k, w)
				}
			}
		}
	}
}

// TestIndexLiveTailRangePositions is TestIndexRangePositions through the
// live snapshot's mixed index+tail path: sealed segments answered from
// their memoized indexes, the tail swept, windows at every position.
func TestIndexLiveTailRangePositions(t *testing.T) {
	const horizon = 400
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 37, 160} {
		ts := randomTuples(r, n, horizon)
		ev := NewLive(LiveOptions{SegmentSize: 32})
		if err := ev.AddBatch(ts); err != nil {
			t.Fatal(err)
		}
		snap, err := ev.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range aggregate.Kinds() {
			f := aggregate.For(k)
			for _, w := range windowsFor(horizon) {
				got, err := snap.RangeIndexed(f, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.ValidatePartition(w.Start, w.End); err != nil {
					t.Fatalf("n=%d %v %v: %v", n, k, w, err)
				}
				want := Reference(f, ts).Clip(w)
				if !got.Equal(want) {
					t.Fatalf("n=%d %v window %v: indexed live range differs from clipped oracle", n, k, w)
				}
				direct, err := snap.Range(f, w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(direct) {
					t.Fatalf("n=%d %v window %v: RangeIndexed differs from Range", n, k, w)
				}
			}
		}
		closeLive(ev)
	}
}

// TestMetamorphicIntervalSplit pins the decomposability the index exists
// for: for any split point m inside [a, b], the merge of the partial
// lookups over [a, m-1] and [m, b] must equal the direct lookup over
// [a, b] — row-wise (concatenated range results) and partial-wise
// (MergePartials over the two halves' root-path accumulations).
func TestMetamorphicIntervalSplit(t *testing.T) {
	const horizon = 300
	r := rand.New(rand.NewSource(23))
	for _, cfg := range []workload.Config{
		{Tuples: 120, Lifespan: horizon, Order: workload.Sorted, Seed: 5},
		{Tuples: 120, Lifespan: horizon, Order: workload.Random, Seed: 5},
		{Tuples: 120, Lifespan: horizon, Order: workload.Random, LongLivedPct: 80, Seed: 5},
	} {
		rel, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := NewIntervalIndex(rel.Tuples)
		if err != nil {
			t.Fatal(err)
		}
		wl := cfg.Order
		for _, k := range aggregate.Kinds() {
			f := aggregate.For(k)
			for trial := 0; trial < 40; trial++ {
				a := interval.Time(r.Int63n(horizon))
				b := a + 1 + interval.Time(r.Int63n(horizon))
				m := a + 1 + interval.Time(r.Int63n(int64(b-a)))
				left, err := idx.Range(f, interval.MustNew(a, m-1))
				if err != nil {
					t.Fatal(err)
				}
				right, err := idx.Range(f, interval.MustNew(m, b))
				if err != nil {
					t.Fatal(err)
				}
				direct, err := idx.Range(f, interval.MustNew(a, b))
				if err != nil {
					t.Fatal(err)
				}
				joined := &Result{Func: f, Rows: append(append([]Row(nil), left.Rows...), right.Rows...)}
				if err := joined.ValidatePartition(a, b); err != nil {
					t.Fatalf("%v %v split at %d: concatenated halves invalid: %v", wl, k, m, err)
				}
				if !joined.Equal(direct) {
					t.Fatalf("%v %v [%d,%d] split at %d: merged halves differ from direct lookup", wl, k, a, b, m)
				}
			}
		}
		// Partial-wise: accumulate each half's rows back into one partial
		// per side and merge; COUNT and SUM are linear in elementary-
		// interval contributions, so totals must agree.
		a, m, b := interval.Time(10), interval.Time(137), interval.Time(horizon-5)
		sumHalf := func(w interval.Interval) IndexPartial {
			res, err := idx.Range(aggregate.For(aggregate.Count), w)
			if err != nil {
				t.Fatal(err)
			}
			var p IndexPartial
			for _, row := range res.Rows {
				count, _, _ := row.State.Counters()
				width := int64(row.Interval.End - row.Interval.Start + 1)
				q := IndexPartial{Count: count * width, Sum: count * width, Min: 1, Max: 1}
				if count == 0 {
					q = IndexPartial{}
				} else if q.Count == 1 {
					q.Sum, q.Min, q.Max = 1, 1, 1
				}
				p = MergePartials(p, q)
			}
			return p
		}
		got := MergePartials(sumHalf(interval.MustNew(a, m-1)), sumHalf(interval.MustNew(m, b)))
		want := sumHalf(interval.MustNew(a, b))
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("partial-wise split: merged halves %+v differ from direct %+v", got, want)
		}
	}
}

// TestIndexClosed pins the Close contract: lookups after Close fail with
// ErrIndexClosed, and Close is idempotent.
func TestIndexClosed(t *testing.T) {
	idx, err := NewIntervalIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	// The idempotent re-Close and the post-Close probes run in their own
	// closures: finishonce tracks one function body at a time, and these are
	// deliberate contract violations, not bugs to silence with an ignore.
	func() {
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	func() {
		if _, err := idx.Result(aggregate.For(aggregate.Count)); err != ErrIndexClosed {
			t.Fatalf("Result after Close: %v, want ErrIndexClosed", err)
		}
	}()
}

// TestIndexRejectsInvalidTuple pins build-time validation.
func TestIndexRejectsInvalidTuple(t *testing.T) {
	// Assembled field-by-field: an inverted interval can't come from the
	// validating constructors, and the rejection of exactly that hole is
	// what this test pins.
	var bad tuple.Tuple
	bad.Name, bad.Value = "x", 1
	bad.Valid.Start, bad.Valid.End = 9, 3
	if _, err := NewIntervalIndex([]tuple.Tuple{bad}); err == nil {
		t.Fatal("invalid tuple accepted")
	}
}

// TestIndexSinkMetrics attaches a Metrics sink and checks the build gauge
// and the lookup/merge counters surface under the index-lookup label.
func TestIndexSinkMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ts := randomTuples(r, 64, 300)
	idx, err := NewIntervalIndex(ts)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics(obs.NewRegistry())
	idx.SetSink(m)
	if _, err := idx.Range(aggregate.For(aggregate.Sum), interval.MustNew(10, 200)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{obs.MetricIndexNodes, obs.MetricIndexLookups, obs.MetricIndexMerges} {
		if !strings.Contains(out, name+`{algorithm="index-lookup"}`) {
			t.Fatalf("metric %s missing from exposition:\n%s", name, out)
		}
	}
	// nil sink: disabled, not a panic.
	idx2, err := NewIntervalIndex(ts)
	if err != nil {
		t.Fatal(err)
	}
	idx2.SetSink(nil)
	if _, err := idx2.At(aggregate.For(aggregate.Max), 42); err != nil {
		t.Fatal(err)
	}
}
