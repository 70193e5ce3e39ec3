package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// TestSweepEmpty: the empty relation yields the single universe row with the
// identity state (Figure 2.a), same as every other evaluator.
func TestSweepEmpty(t *testing.T) {
	for _, kind := range aggregate.Kinds() {
		f := aggregate.For(kind)
		res, err := NewSweep(f).Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Interval != interval.Universe() {
			t.Fatalf("%v: got %v", kind, res.Rows)
		}
		if !res.Rows[0].State.Empty() {
			t.Fatalf("%v: universe row not the identity state", kind)
		}
	}
}

// TestSweepPaperRelation: the sweep reproduces the paper's running example
// (Table 1 relation) for every aggregate, checked against the oracle.
func TestSweepPaperRelation(t *testing.T) {
	ts := []tuple.Tuple{
		tuple.MustNew("Rich", 55000, 10, 14),
		tuple.MustNew("Eric", 60000, 6, 11),
		tuple.MustNew("Nathan", 70000, 5, 8),
	}
	for _, kind := range aggregate.Kinds() {
		f := aggregate.For(kind)
		res, _, err := Run(Spec{Algorithm: SweepEval}, f, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if !res.Equal(Reference(f, ts)) {
			t.Fatalf("%v: sweep differs from oracle\n%s", kind, res)
		}
	}
}

// TestSweepSortedFastPath: feeding time-sorted tuples must skip the arrival
// sort entirely — zero radix passes — and still match the oracle.
func TestSweepSortedFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ts := randomTuples(r, 2000, 50000)
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	f := aggregate.For(aggregate.Count)

	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg)
	res, _, err := RunObserved(Spec{Algorithm: SweepEval}, f, ts, m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(Reference(f, ts)) {
		t.Fatal("sorted sweep differs from oracle")
	}
	// Arrivals were pre-sorted; only the departure column may need sorting.
	// COUNT's arrival column is never radix-sorted here, so the pass count
	// is at most the departure sort's (≤ 8) and the event total is exact.
	events := metricValue(t, reg, obs.MetricSweepEvents, "sweep")
	if want := countSweepEvents(ts); events != want {
		t.Fatalf("%s = %d, want %d", obs.MetricSweepEvents, events, want)
	}
	if falls := metricValue(t, reg, obs.MetricSweepFallbacks, "sweep"); falls != 0 {
		t.Fatalf("%s = %d, want 0", obs.MetricSweepFallbacks, falls)
	}
}

// countSweepEvents is the expected tempagg_sweep_events_total for a COUNT
// run over the universe span: one arrival per tuple plus one departure per
// tuple not reaching Forever.
func countSweepEvents(ts []tuple.Tuple) int64 {
	n := int64(0)
	for _, tu := range ts {
		n++
		if tu.Valid.End != interval.Forever {
			n++
		}
	}
	return n
}

// metricValue reads one labelled counter value from a registry scrape;
// an absent series reads as zero.
func metricValue(t *testing.T, reg *obs.Registry, name, algorithm string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := fmt.Sprintf("%s{algorithm=%q} ", name, algorithm)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	return 0
}

// TestSweepRadixPath: random-order input takes the radix sort (pass count
// > 0 at this size) and matches the oracle for every aggregate.
func TestSweepRadixPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ts := randomTuples(r, 1500, 40000)
	for _, kind := range aggregate.Kinds() {
		f := aggregate.For(kind)
		reg := obs.NewRegistry()
		m := obs.NewMetrics(reg)
		res, _, err := RunObserved(Spec{Algorithm: SweepEval}, f, ts, m)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(Reference(f, ts)) {
			t.Fatalf("%v: random-order sweep differs from oracle", kind)
		}
		if passes := metricValue(t, reg, obs.MetricSweepRadix, "sweep"); passes == 0 {
			t.Fatalf("%v: random input above radixMinSize reported zero radix passes", kind)
		}
	}
}

// TestSweepWedgeFallback: a MIN run whose wedge exceeds WedgeBound must take
// the aggregation-tree fallback, report it on the sink, and still match the
// oracle bit for bit.
func TestSweepWedgeFallback(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ts := randomTuples(r, 600, 2000) // dense overlap: wedge far above 4
	f := aggregate.For(aggregate.Min)

	reg := obs.NewRegistry()
	m := obs.NewMetrics(reg)
	ev, err := NewObserved(Spec{Algorithm: SweepEval}, f, m)
	if err != nil {
		t.Fatal(err)
	}
	ev.(*Sweep).WedgeBound = 4
	if err := ev.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(Reference(f, ts)) {
		t.Fatal("fallback result differs from oracle")
	}
	if falls := metricValue(t, reg, obs.MetricSweepFallbacks, "sweep"); falls != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricSweepFallbacks, falls)
	}
	// The fallback tree publishes its own node traffic under its own label.
	if n := metricValue(t, reg, obs.MetricNodesAllocated, "aggregation-tree"); n == 0 {
		t.Fatal("fallback tree published no node allocations")
	}
}

// TestSweepRange: the range-limited constructor clips tuples to its span and
// produces a partition of exactly that span — the contract the partitioned
// evaluator relies on per shard.
func TestSweepRange(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	ts := randomTuples(r, 300, 3000)
	span := interval.MustNew(500, 2200)
	for _, kind := range []aggregate.Kind{aggregate.Sum, aggregate.Max} {
		f := aggregate.For(kind)
		ev := NewSweepRange(f, span)
		for _, tu := range ts {
			if err := ev.Add(tu); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ev.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.ValidatePartition(span.Start, span.End); err != nil {
			t.Fatal(err)
		}
		want := Reference(f, ts).Clip(span)
		if !res.Equal(want) {
			t.Fatalf("%v: range sweep differs from clipped oracle", kind)
		}
	}
}

// TestSweepStatsAndNodeModel: tuple counting matches the input and the node
// charge follows the documented model — one node per materialized event for
// decomposable aggregates, two per buffered MIN/MAX tuple.
func TestSweepStatsAndNodeModel(t *testing.T) {
	ts := []tuple.Tuple{
		tuple.MustNew("a", 1, 0, 9),
		tuple.MustNew("b", 2, 5, interval.Forever), // no departure event
		tuple.MustNew("c", 3, 7, 7),
	}
	count := NewSweep(aggregate.For(aggregate.Count))
	for _, tu := range ts {
		if err := count.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	if got := count.Stats(); got.Tuples != 3 || got.LiveNodes != 5 || got.PeakNodes != 5 {
		t.Fatalf("COUNT stats = %+v, want 3 tuples / 5 nodes (2+1+2 events)", got)
	}
	if _, err := count.Finish(); err != nil {
		t.Fatal(err)
	}

	minEv := NewSweep(aggregate.For(aggregate.Min))
	if err := minEv.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if got := minEv.Stats(); got.Tuples != 3 || got.LiveNodes != 6 {
		t.Fatalf("MIN stats = %+v, want 3 tuples / 6 nodes (2 per buffered tuple)", got)
	}
	if _, err := minEv.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRadixSortInt64 pins the sorter itself: keys land ascending, payload
// columns follow the same permutation, the pre-sorted check is consistent,
// and pass counts reflect trivial-pass skipping.
func TestRadixSortInt64(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var ar colArena

	// Large random input: must sort and must skip the all-zero high bytes.
	n := 5000
	keys := make([]int64, n)
	pay := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.Intn(1 << 20))
		pay[i] = keys[i] * 3
	}
	passes := radixSortInt64(&ar, keys, pay)
	if !sortedInt64(keys) {
		t.Fatal("keys not sorted")
	}
	if passes < 1 || passes > 3 {
		t.Fatalf("keys below 1<<20 need 1–3 non-trivial passes, got %d", passes)
	}
	for i := range keys {
		if pay[i] != keys[i]*3 {
			t.Fatalf("payload desynchronized at %d: key %d payload %d", i, keys[i], pay[i])
		}
	}

	// Small input: the pdqsort fallback, zero radix passes.
	small := []int64{9, 3, 7, 3, 1}
	smallPay := []int64{90, 30, 70, 31, 10}
	if passes := radixSortInt64(&ar, small, smallPay); passes != 0 {
		t.Fatalf("small input reported %d radix passes, want 0", passes)
	}
	if !sortedInt64(small) {
		t.Fatal("small input not sorted")
	}
	for i := range small {
		if smallPay[i]/10 != small[i] {
			t.Fatalf("small payload desynchronized at %d", i)
		}
	}

	// Forever-scale keys exercise every digit position.
	big := []int64{interval.Forever, 0, interval.Forever - 1, 1 << 40}
	wide := make([]int64, radixMinSize)
	for i := range wide {
		v := big[i%len(big)]
		if v > 0 {
			v -= int64(i % 2) // keys must stay non-negative (timestamps)
		}
		wide[i] = v
	}
	radixSortInt64(&ar, wide)
	if !sortedInt64(wide) {
		t.Fatal("wide-range keys not sorted")
	}
}

// TestColArenaReuse: released columns come back from the shared pool and the
// counters record the reuse. sync.Pool may drop any Put — under -race it
// drops one in four at random — so the test makes many round trips and
// asks for at least one reuse, not for the first.
func TestColArenaReuse(t *testing.T) {
	const trips = 64
	var ar colArena
	for i := 0; i < trips; i++ {
		ar.release(ar.acquire(colMinCap))
	}
	cols, reused := ar.counters()
	if cols != trips {
		t.Fatalf("acquired = %d, want %d", cols, trips)
	}
	if reused == 0 {
		t.Fatalf("%d release/acquire round trips recorded no pool reuse", trips)
	}
	// push grows through the pool and preserves contents.
	var ar2 colArena
	var col []int64
	for i := 0; i < 3*colMinCap; i++ {
		col = ar2.push(col, int64(i))
	}
	for i := range col {
		if col[i] != int64(i) {
			t.Fatalf("grown column lost element %d", i)
		}
	}
}
