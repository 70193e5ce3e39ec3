package core

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// parallelSortKeys builds an adversarial key mix for the sort tests: dense
// small timestamps (duplicates, constant high digits that trigger pass
// skipping) interleaved with full-range values that light up all eight
// digits.
func parallelSortKeys(r *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		switch r.Intn(4) {
		case 0:
			keys[i] = r.Int63() // full 63-bit range
		case 1:
			keys[i] = int64(r.Intn(10)) // heavy duplication
		default:
			keys[i] = r.Int63n(1 << 20) // timestamp-like
		}
	}
	return keys
}

// TestParallelRadixBitIdentical: the parallel sort must produce exactly the
// serial sort's output — keys, payload permutation, and reported pass count
// — across worker counts and input shapes.
func TestParallelRadixBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{parallelSortMinSize, 3*parallelSortMinSize + 17} {
		keys := parallelSortKeys(r, n)
		payload := make([]int64, n)
		for i := range payload {
			payload[i] = int64(i) // payload = original index: the permutation itself
		}
		wantK := append([]int64(nil), keys...)
		wantP := append([]int64(nil), payload...)
		var ar colArena
		wantPasses := radixSortInt64(&ar, wantK, wantP)
		for _, workers := range []int{2, 3, 8} {
			gotK := append([]int64(nil), keys...)
			gotP := append([]int64(nil), payload...)
			passes := radixSortInt64Parallel(&ar, workers, gotK, gotP)
			if passes != wantPasses {
				t.Fatalf("n=%d workers=%d: %d passes, serial did %d", n, workers, passes, wantPasses)
			}
			if !reflect.DeepEqual(gotK, wantK) {
				t.Fatalf("n=%d workers=%d: keys differ from serial sort", n, workers)
			}
			if !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("n=%d workers=%d: payload permutation differs from serial sort (stability broken)", n, workers)
			}
		}
	}
}

// TestParallelRadixSmallInputFallsBack: below the cutoff the parallel entry
// point must defer to the serial sort (still correct, zero extra scratch).
func TestParallelRadixSmallInputFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	keys := parallelSortKeys(r, 1000)
	want := append([]int64(nil), keys...)
	var ar colArena
	radixSortInt64(&ar, want)
	radixSortInt64Parallel(&ar, 8, keys)
	if !reflect.DeepEqual(keys, want) {
		t.Fatal("small-input fallback produced a different order")
	}
}

// runSweepParallel evaluates ts through a sweep with the given worker count.
func runSweepParallel(t *testing.T, f aggregate.Func, ts []tuple.Tuple, parallel int) *Result {
	t.Helper()
	ev := NewSweepOptions(f, SweepOptions{Parallel: parallel})
	for lo := 0; lo < len(ts); lo += BatchPage {
		hi := min(lo+BatchPage, len(ts))
		if err := ev.AddBatch(ts[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ev.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelSweepRowIdentical: for the decomposable aggregates the chunked
// scan must emit the serial scan's rows bit for bit — same boundaries, same
// states, same row count — not merely a value-equivalent coalescing.
func TestParallelSweepRowIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, kind := range []aggregate.Kind{aggregate.Count, aggregate.Sum, aggregate.Avg} {
		f := aggregate.For(kind)
		for _, n := range []int{1, 37, 800, 5000} {
			ts := randomTuples(r, n, 6000)
			want := runSweepParallel(t, f, ts, 1)
			for _, workers := range []int{2, 4, 8} {
				got := runSweepParallel(t, f, ts, workers)
				if err := got.Validate(); err != nil {
					t.Fatalf("%v n=%d workers=%d: %v", kind, n, workers, err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%v n=%d workers=%d: chunked rows differ from serial rows", kind, n, workers)
				}
			}
		}
	}
}

// TestParallelWedgeMatchesSerial: the MIN/MAX span-partitioned path is
// value-equivalent to the serial wedge (region edges may split rows, so
// equality is after coalescing), in both wedge and forced-fallback regimes.
func TestParallelWedgeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, kind := range []aggregate.Kind{aggregate.Min, aggregate.Max} {
		f := aggregate.For(kind)
		for _, bound := range []int{0, 1} {
			ts := randomTuples(r, 600, 5000)
			want := Reference(f, ts)
			for _, workers := range []int{2, 4, 8} {
				ev := NewSweepOptions(f, SweepOptions{Parallel: workers})
				ev.WedgeBound = bound
				for _, tu := range ts {
					if err := ev.Add(tu); err != nil {
						t.Fatal(err)
					}
				}
				got, err := ev.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%v bound=%d workers=%d: %v", kind, bound, workers, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v bound=%d workers=%d: parallel wedge differs from oracle", kind, bound, workers)
				}
			}
		}
	}
}

// TestParallelSweepConcurrentScrape is the -race regression for the chunked
// scan: sweep workers fold chunks concurrently while a scrape
// goroutine renders the registry, mirroring TestStreamingMergeConcurrentScrape
// for the parallel sweep surfaces.
func TestParallelSweepConcurrentScrape(t *testing.T) {
	ts := raceTuples(4000)
	m := obs.NewMetrics(obs.NewRegistry())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Registry().WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	for round := 0; round < 3; round++ {
		// One parallel sweep per aggregate of a COUNT+SUM+AVG select list,
		// the way the query layer evaluates it.
		for _, kind := range []aggregate.Kind{aggregate.Count, aggregate.Sum, aggregate.Avg} {
			ev, err := NewObserved(Spec{Algorithm: SweepEval, Parallel: 4}, aggregate.For(kind), m)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(ts); lo += BatchPage {
				hi := min(lo+BatchPage, len(ts))
				if err := ev.AddBatch(ts[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			res, err := ev.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("round %d %v: %v", round, kind, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, metric := range []string{obs.MetricSweepWorkers, obs.MetricSweepChunks} {
		if !strings.Contains(out, metric) {
			t.Errorf("exposition missing %s after parallel runs", metric)
		}
	}
}

// TestParallelSweepMetricsExact pins the new counters' exact values on a
// deterministic input: distinct arrival timestamps make every quantile cut
// unique, so Parallel=2 yields exactly 2 chunks. The nil-Sink path (no sink
// attached) must stay silent, preserving the disabled-instrumentation
// contract.
func TestParallelSweepMetricsExact(t *testing.T) {
	ts := raceTuples(4200) // distinct starts 0..4199
	m := obs.NewMetrics(obs.NewRegistry())

	ev, err := NewObserved(Spec{Algorithm: SweepEval, Parallel: 2}, aggregate.For(aggregate.Count), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Finish(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for series, want := range map[string]string{
		// Worker counts are a histogram (a gauge would be last-write-wins
		// across concurrent queries): one 2-worker observation per run.
		obs.MetricSweepWorkers + `_bucket{algorithm="sweep",le="2"}`: "1",
		obs.MetricSweepWorkers + `_sum{algorithm="sweep"}`:           "2",
		obs.MetricSweepWorkers + `_count{algorithm="sweep"}`:         "1",
		obs.MetricSweepChunks + `{algorithm="sweep"}`:                "2",
		obs.MetricSweepEvents + `{algorithm="sweep"}`:                "8400",
		obs.MetricTuplesProcessed + `{algorithm="sweep"}`:            "4200",
		obs.MetricSweepFallbacks + `{algorithm="sweep"}`:             "0",
	} {
		line := series + " " + want
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}

	// nil Sink: the same runs with no sink must not panic and must not
	// publish anywhere (there is no registry to check — absence of a panic
	// is the contract).
	ev2 := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Parallel: 2})
	if err := ev2.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := ev2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepOptionsWorkerResolution pins the cutoff contract: a defaulted
// Parallel stays serial below parallelSweepMinEvents, while explicit values
// are honored as given.
func TestSweepOptionsWorkerResolution(t *testing.T) {
	for _, tc := range []struct {
		parallel, events, want int
	}{
		{1, 1 << 20, 1},
		{6, 8, 6},
		{0, parallelSweepMinEvents - 1, 1},
	} {
		if got := (SweepOptions{Parallel: tc.parallel}).workers(tc.events); got != tc.want {
			t.Errorf("Parallel=%d events=%d: workers=%d, want %d", tc.parallel, tc.events, got, tc.want)
		}
	}
	if got := (SweepOptions{}).workers(parallelSweepMinEvents); got < 1 {
		t.Errorf("defaulted workers above cutoff must be >= 1, got %d", got)
	}
}

// BenchmarkSweepParallelScan measures the chunked scan against the serial
// one on a shared pre-sorted workload (sorting excluded by using sorted
// ingestion), the microbenchmark behind the BENCH_PR7 series.
func BenchmarkSweepParallelScan(b *testing.B) {
	r := rand.New(rand.NewSource(46))
	ts := randomTuples(r, 200000, 1_000_000)
	f := aggregate.For(aggregate.Count)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := NewSweepOptions(f, SweepOptions{Parallel: workers})
				for lo := 0; lo < len(ts); lo += BatchPage {
					hi := min(lo+BatchPage, len(ts))
					if err := ev.AddBatch(ts[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ev.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
