package core

import (
	"errors"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

func TestUniformBoundaries(t *testing.T) {
	bs := UniformBoundaries(interval.MustNew(0, 99), 4)
	want := []interval.Time{25, 50, 75}
	if len(bs) != len(want) {
		t.Fatalf("boundaries = %v", bs)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", bs, want)
		}
	}
	if UniformBoundaries(interval.MustNew(0, 99), 1) != nil {
		t.Fatal("n=1 must yield no boundaries")
	}
	if UniformBoundaries(interval.Universe(), 4) != nil {
		t.Fatal("open-ended lifespan must yield no boundaries")
	}
	// Tiny lifespan: width clamps to 1 and boundaries stay in range.
	bs = UniformBoundaries(interval.MustNew(10, 12), 8)
	for _, b := range bs {
		if b <= 10 || b > 12 {
			t.Fatalf("boundary %d out of range", b)
		}
	}
}

func TestPartitionSpansValidation(t *testing.T) {
	if _, err := partitionSpans([]interval.Time{10, 10}); err == nil {
		t.Fatal("equal boundaries must fail")
	}
	if _, err := partitionSpans([]interval.Time{10, 5}); err == nil {
		t.Fatal("descending boundaries must fail")
	}
	if _, err := partitionSpans([]interval.Time{0}); err == nil {
		t.Fatal("boundary at the origin must fail")
	}
	spans, err := partitionSpans(nil)
	if err != nil || len(spans) != 1 || spans[0] != interval.Universe() {
		t.Fatalf("nil boundaries = %v, %v", spans, err)
	}
}

// TestPartitionedMatchesUnpartitioned: partitioned evaluation is
// value-equivalent to the oracle for every kind and boundary layout.
func TestPartitionedMatchesUnpartitioned(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, kind := range aggregate.Kinds() {
		f := aggregate.For(kind)
		prop := func() bool {
			ts := randomTuples(r, r.Intn(80), 500)
			want := Reference(f, ts)
			nb := r.Intn(6)
			var bounds []interval.Time
			prev := interval.Time(0)
			for i := 0; i < nb; i++ {
				prev += 1 + r.Int63n(200)
				bounds = append(bounds, prev)
			}
			got, stats, err := EvaluatePartitioned(f, ts, PartitionOptions{Boundaries: bounds})
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if stats.Tuples != len(ts) {
				return false
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			return got.Equal(want)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestPartitionedSpillToDisk(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	f := aggregate.For(aggregate.Sum)
	// Keep values in the on-disk int32/uint32 ranges.
	ts := make([]tuple.Tuple, 300)
	for i := range ts {
		s := r.Int63n(1000)
		ts[i] = tuple.MustNew("t", r.Int63n(1000), s, s+r.Int63n(400))
	}
	want := Reference(f, ts)
	opts := PartitionOptions{
		Boundaries: []interval.Time{200, 400, 600, 800},
		SpillDir:   t.TempDir(),
	}
	got, stats, err := EvaluatePartitioned(f, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("spilled evaluation differs from oracle")
	}
	if stats.PeakNodes <= 0 {
		t.Fatal("no peak recorded")
	}

	// An error from emit stops the run after that chunk and is returned;
	// the spill files are removed all the same.
	stop := errors.New("stop")
	chunks := 0
	_, err = EvaluatePartitionedStream(f, ts, opts, func(StreamChunk) error {
		chunks++
		return stop
	})
	if !errors.Is(err, stop) || chunks != 1 {
		t.Fatalf("emit error: err = %v after %d chunks, want %v after 1", err, chunks, stop)
	}
	if left, err := os.ReadDir(opts.SpillDir); err != nil || len(left) != 0 {
		t.Fatalf("spill directory after a stopped run: %v, %v", left, err)
	}
}

// TestPartitionedBoundsMemory: evaluating partition by partition keeps the
// largest resident tree far below the single-tree size.
func TestPartitionedBoundsMemory(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	f := aggregate.For(aggregate.Count)
	ts := make([]tuple.Tuple, 4000)
	for i := range ts {
		s := r.Int63n(100000)
		ts[i] = tuple.MustNew("t", 1, s, s+r.Int63n(300))
	}
	_, whole, err := Run(Spec{Algorithm: AggregationTree}, f, ts)
	if err != nil {
		t.Fatal(err)
	}
	opts := PartitionOptions{
		Boundaries: UniformBoundaries(interval.MustNew(0, 100299), 16),
	}
	_, parts, err := EvaluatePartitioned(f, ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if parts.PeakNodes*4 > whole.PeakNodes {
		t.Fatalf("partitioned peak %d not ≪ whole-tree peak %d",
			parts.PeakNodes, whole.PeakNodes)
	}
}

func TestPartitionedForeverTuples(t *testing.T) {
	f := aggregate.For(aggregate.Count)
	ts := []tuple.Tuple{
		tuple.MustNew("a", 1, 5, interval.Forever),
		tuple.MustNew("b", 1, 0, 9),
	}
	got, _, err := EvaluatePartitioned(f, ts, PartitionOptions{
		Boundaries: []interval.Time{10, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Reference(f, ts)) {
		t.Fatal("∞-ended tuples mishandled across partitions")
	}
}

func TestPartitionedRejectsInvalidInput(t *testing.T) {
	f := aggregate.For(aggregate.Count)
	//tempagglint:ignore intervalbounds the test needs an invalid tuple to exercise input rejection
	bad := []tuple.Tuple{{Name: "x", Valid: interval.Interval{Start: 9, End: 1}}}
	if _, _, err := EvaluatePartitioned(f, bad, PartitionOptions{}); err == nil {
		t.Fatal("invalid tuple must be rejected")
	}
	if _, _, err := EvaluatePartitioned(f, nil, PartitionOptions{
		Boundaries: []interval.Time{5, 3},
	}); err == nil {
		t.Fatal("bad boundaries must be rejected")
	}
}

func TestPartitionedEmptyInput(t *testing.T) {
	f := aggregate.For(aggregate.Min)
	got, _, err := EvaluatePartitioned(f, nil, PartitionOptions{
		Boundaries: []interval.Time{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("%d rows, want 2 partitions", len(got.Rows))
	}
	got.Coalesce()
	if len(got.Rows) != 1 {
		t.Fatal("empty partitions must coalesce to one row")
	}
}

func TestAggregationTreeRangeClipsInput(t *testing.T) {
	f := aggregate.For(aggregate.Count)
	tree := NewAggregationTreeRange(f, interval.MustNew(10, 19))
	for _, tu := range []tuple.Tuple{
		tuple.MustNew("in", 1, 12, 14),
		tuple.MustNew("strad", 1, 0, 11),
		tuple.MustNew("out", 1, 30, 40),
	} {
		if err := tree.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ValidatePartition(10, 19); err != nil {
		t.Fatal(err)
	}
	if v, ok := res.At(11); !ok || v.Int != 1 {
		t.Fatalf("count at 11 = %v, want 1 (straddling tuple clipped in)", v)
	}
	if v, ok := res.At(13); !ok || v.Int != 1 {
		t.Fatalf("count at 13 = %v, want 1 (only the in-range tuple)", v)
	}
	if v, ok := res.At(16); !ok || v.Int != 0 {
		t.Fatalf("count at 16 = %v, want 0 (outside tuple ignored)", v)
	}
}
