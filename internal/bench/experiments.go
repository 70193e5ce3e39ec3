package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/order"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// KPct is the k-ordered-percentage used for the k-ordered series of
// Figures 7–9. The paper found its effect "outweighed greatly by the effect
// of the k value" (§6.1) and shows a single graph per k; we use the middle
// tested value.
const KPct = 0.08

func genRandom(longPct int) func(int, int64) (*relation.Relation, error) {
	return func(size int, seed int64) (*relation.Relation, error) {
		return workload.Generate(workload.Config{
			Tuples: size, LongLivedPct: longPct, Order: workload.Random, Seed: seed,
		})
	}
}

func genSorted(longPct int) func(int, int64) (*relation.Relation, error) {
	return func(size int, seed int64) (*relation.Relation, error) {
		return workload.Generate(workload.Config{
			Tuples: size, LongLivedPct: longPct, Order: workload.Sorted, Seed: seed,
		})
	}
}

func genKOrdered(longPct, k int) func(int, int64) (*relation.Relation, error) {
	return func(size int, seed int64) (*relation.Relation, error) {
		return workload.Generate(workload.Config{
			Tuples: size, LongLivedPct: longPct, Order: workload.KOrdered,
			K: k, KPct: KPct, Seed: seed,
		})
	}
}

type seriesSpec struct {
	name string
	spec core.Spec
	gen  func(int, int64) (*relation.Relation, error)
}

func buildFigure(id, title, metricName string, opts Options,
	metric func(measurement) float64, specs []seriesSpec) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{ID: id, Title: title, Metric: metricName}
	for _, ss := range specs {
		s, err := sweep(opts, ss.spec, ss.gen, metric)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: %s/%s: %w", id, ss.name, err)
		}
		s.Name = ss.name
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure6 reproduces the time comparison on unordered relations: the linked
// list versus the aggregation tree across sizes, with and without long-lived
// tuples. Expected shape: the tree wins by a growing factor (the paper
// reports ~300× at 64K), and neither algorithm is materially affected by the
// long-lived percentage.
func Figure6(opts Options) (Figure, error) {
	return buildFigure("figure-6", "Time Comparison on Unordered Relations",
		"seconds", opts, timeMetric, []seriesSpec{
			{"linked-list ll=0%", core.Spec{Algorithm: core.LinkedList}, genRandom(0)},
			{"linked-list ll=80%", core.Spec{Algorithm: core.LinkedList}, genRandom(80)},
			{"aggregation-tree ll=0%", core.Spec{Algorithm: core.AggregationTree}, genRandom(0)},
			{"aggregation-tree ll=40%", core.Spec{Algorithm: core.AggregationTree}, genRandom(40)},
			{"aggregation-tree ll=80%", core.Spec{Algorithm: core.AggregationTree}, genRandom(80)},
		})
}

// figure78 builds the ordered-relation time comparison at a given long-lived
// percentage (Figure 7 at 0%, Figure 8 at 80%).
func figure78(id, title string, longPct int, opts Options) (Figure, error) {
	return buildFigure(id, title, "seconds", opts, timeMetric, []seriesSpec{
		{"linked-list", core.Spec{Algorithm: core.LinkedList}, genSorted(longPct)},
		{"aggregation-tree (sorted)", core.Spec{Algorithm: core.AggregationTree}, genSorted(longPct)},
		{"ktree k=400", core.Spec{Algorithm: core.KOrderedTree, K: 400}, genKOrdered(longPct, 400)},
		{"ktree k=40", core.Spec{Algorithm: core.KOrderedTree, K: 40}, genKOrdered(longPct, 40)},
		{"ktree k=4", core.Spec{Algorithm: core.KOrderedTree, K: 4}, genKOrdered(longPct, 4)},
		{"ktree sorted k=1", core.Spec{Algorithm: core.KOrderedTree, K: 1}, genSorted(longPct)},
	})
}

// Figure7 reproduces the time comparison on ordered relations without
// long-lived tuples. Expected shape: smaller k is faster; the aggregation
// tree degenerates toward O(n²) on sorted input; the linked list is flat but
// slow; ktree k=1 over the sorted relation is best.
func Figure7(opts Options) (Figure, error) {
	return figure78("figure-7",
		"Time Comparison on Ordered Relations without Long-lived Tuples", 0, opts)
}

// Figure8 reproduces the same comparison with 80% long-lived tuples.
// Expected shape: the k-ordered trees slow down (larger resident state); the
// aggregation tree paradoxically improves (end-time insertions bush out its
// right flank); the linked list is unaffected.
func Figure8(opts Options) (Figure, error) {
	return figure78("figure-8",
		"Time Comparison on Ordered Relations with 80% Long-lived Tuples", 80, opts)
}

// Figure9 reproduces the main-memory comparison with no long-lived tuples,
// in bytes at 16 bytes per node (§6.2). Expected shape: the aggregation tree
// needs the most memory; the linked list about half (one node per unique
// timestamp versus two); the k-ordered trees collapse to small footprints,
// decreasing with k.
func Figure9(opts Options) (Figure, error) {
	return buildFigure("figure-9", "Memory Comparison with No Long-lived Tuples",
		"bytes", opts, spaceMetric, []seriesSpec{
			{"aggregation-tree", core.Spec{Algorithm: core.AggregationTree}, genRandom(0)},
			{"linked-list", core.Spec{Algorithm: core.LinkedList}, genRandom(0)},
			{"ktree k=400", core.Spec{Algorithm: core.KOrderedTree, K: 400}, genKOrdered(0, 400)},
			{"ktree k=40", core.Spec{Algorithm: core.KOrderedTree, K: 40}, genKOrdered(0, 40)},
			{"ktree k=4", core.Spec{Algorithm: core.KOrderedTree, K: 4}, genKOrdered(0, 4)},
			{"ktree sorted k=1", core.Spec{Algorithm: core.KOrderedTree, K: 1}, genSorted(0)},
		})
}

// MemoryLongLived reproduces the §6.2 finding reported in prose: with many
// long-lived tuples the k-ordered tree's memory is "much worse", while the
// linked list and aggregation tree are "totally unaffected".
func MemoryLongLived(opts Options) (Figure, error) {
	return buildFigure("memory-long-lived", "Memory Comparison with 80% Long-lived Tuples",
		"bytes", opts, spaceMetric, []seriesSpec{
			{"aggregation-tree", core.Spec{Algorithm: core.AggregationTree}, genRandom(80)},
			{"linked-list", core.Spec{Algorithm: core.LinkedList}, genRandom(80)},
			{"ktree k=4", core.Spec{Algorithm: core.KOrderedTree, K: 4}, genKOrdered(80, 4)},
			{"ktree sorted k=1", core.Spec{Algorithm: core.KOrderedTree, K: 1}, genSorted(80)},
		})
}

// AblationBalanced compares the paper's unbalanced aggregation tree, the
// future-work balanced variant (§7), and ktree k=1 on sorted input — the
// aggregation tree's worst case, which balancing repairs.
func AblationBalanced(opts Options) (Figure, error) {
	return buildFigure("ablation-balanced", "Balanced Aggregation Tree on Sorted Relations",
		"seconds", opts, timeMetric, []seriesSpec{
			{"aggregation-tree (sorted)", core.Spec{Algorithm: core.AggregationTree}, genSorted(0)},
			{"balanced-tree (sorted)", core.Spec{Algorithm: core.BalancedTree}, genSorted(0)},
			{"ktree sorted k=1", core.Spec{Algorithm: core.KOrderedTree, K: 1}, genSorted(0)},
			{"balanced-tree (random)", core.Spec{Algorithm: core.BalancedTree}, genRandom(0)},
			{"aggregation-tree (random)", core.Spec{Algorithm: core.AggregationTree}, genRandom(0)},
		})
}

// AblationPageRandomization evaluates the other future-work idea of §7:
// reading a *sorted* relation's pages in randomized order so the aggregation
// tree does not linearize. It measures scan+evaluate time over an on-disk
// relation, sequential versus page-randomized.
func AblationPageRandomization(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	dir, err := os.MkdirTemp("", "tempagg-bench")
	if err != nil {
		return Figure{}, err
	}
	defer os.RemoveAll(dir)

	fig := Figure{
		ID:     "ablation-page-randomization",
		Title:  "Aggregation Tree over Sorted Files: Sequential vs Randomized Page Order",
		Metric: "seconds",
	}
	f := aggregate.For(opts.Agg)
	variants := []struct {
		name string
		opts relation.ScanOptions
	}{
		{"sequential scan", relation.ScanOptions{}},
		{"randomized pages", relation.ScanOptions{RandomizePages: true, Seed: 99}},
	}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, size := range opts.Sizes {
			var ms []measurement
			for _, seed := range opts.Seeds {
				rel, err := genSorted(0)(size, seed)
				if err != nil {
					return Figure{}, err
				}
				path := filepath.Join(dir, fmt.Sprintf("r-%d-%d.rel", size, seed))
				if err := relation.WriteFile(path, rel); err != nil {
					return Figure{}, err
				}
				m, err := timeScanEvaluate(path, v.opts, f)
				if err != nil {
					return Figure{}, err
				}
				ms = append(ms, m)
			}
			s.Points = append(s.Points, Point{Size: size, Value: timeMetric(median(ms))})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

func timeScanEvaluate(path string, sopts relation.ScanOptions, f aggregate.Func) (measurement, error) {
	start := time.Now()
	sc, err := relation.Open(path, sopts)
	if err != nil {
		return measurement{}, err
	}
	defer sc.Close()
	ev := core.NewAggregationTree(f)
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return measurement{}, err
		}
		if !ok {
			break
		}
		if err := ev.Add(t); err != nil {
			return measurement{}, err
		}
	}
	res, err := ev.Finish()
	if err != nil {
		return measurement{}, err
	}
	if len(res.Rows) == 0 {
		return measurement{}, fmt.Errorf("bench: empty result")
	}
	return measurement{seconds: time.Since(start).Seconds(), peakBytes: ev.Stats().PeakBytes()}, nil
}

// AblationPartitioned evaluates the limited-main-memory strategy of §5.1/§7
// ("accumulate the tuples which would overlap this region of the tree and
// process them later"): the whole-relation aggregation tree versus the
// partitioned evaluation (16 time partitions), serial and parallel, over
// random input. Time in seconds; the peak-memory reduction is asserted in
// the core tests.
func AblationPartitioned(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "ablation-partitioned",
		Title:  "Whole Tree vs Partitioned Evaluation (16 partitions, random input)",
		Metric: "seconds",
	}
	f := aggregate.For(opts.Agg)
	variants := []struct {
		name     string
		parallel int
	}{
		{"whole tree", -1},
		{"partitioned serial", 1},
		{"partitioned parallel=4", 4},
	}
	boundaries := core.UniformBoundaries(
		interval.MustNew(0, workload.DefaultLifespan-1), 16)
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, size := range opts.Sizes {
			var ms []measurement
			for _, seed := range opts.Seeds {
				rel, err := genRandom(0)(size, seed)
				if err != nil {
					return Figure{}, err
				}
				start := time.Now()
				var peak int64
				if v.parallel < 0 {
					_, stats, err := core.Run(core.Spec{Algorithm: core.AggregationTree}, f, rel.Tuples)
					if err != nil {
						return Figure{}, err
					}
					peak = stats.PeakBytes()
				} else {
					_, stats, err := core.EvaluatePartitionedTuples(f, rel.Tuples,
						core.PartitionOptions{Boundaries: boundaries, Parallel: v.parallel})
					if err != nil {
						return Figure{}, err
					}
					peak = stats.PeakBytes()
				}
				ms = append(ms, measurement{seconds: time.Since(start).Seconds(), peakBytes: peak})
			}
			s.Points = append(s.Points, Point{Size: size, Value: timeMetric(median(ms))})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Baseline measures the production hot paths head to head over the Table 3
// sweep: the evaluators the optimizer actually picks (aggregation tree on
// random input, balanced tree on random input, sort-then-ktree on sorted
// input) plus the partitioned parallel evaluation. It exists for
// before/after performance comparison across PRs — run it with the
// harness's -json flag and diff the medians (see BENCH_PR4.json).
func Baseline(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig, err := buildFigure("baseline", "Hot-Path Baseline (Table 3 sweep)",
		"seconds", opts, timeMetric, []seriesSpec{
			{"aggregation-tree random", core.Spec{Algorithm: core.AggregationTree}, genRandom(0)},
			{"balanced-tree random", core.Spec{Algorithm: core.BalancedTree}, genRandom(0)},
			{"ktree sorted k=1", core.Spec{Algorithm: core.KOrderedTree, K: 1}, genSorted(0)},
		})
	if err != nil {
		return Figure{}, err
	}
	f := aggregate.For(opts.Agg)
	boundaries := core.UniformBoundaries(
		interval.MustNew(0, workload.DefaultLifespan-1), 16)
	s := Series{Name: "partitioned parallel=4 random"}
	for _, size := range opts.Sizes {
		var ms []measurement
		for _, seed := range opts.Seeds {
			rel, err := genRandom(0)(size, seed)
			if err != nil {
				return Figure{}, err
			}
			start := time.Now()
			_, stats, err := core.EvaluatePartitionedTuples(f, rel.Tuples,
				core.PartitionOptions{Boundaries: boundaries, Parallel: 4})
			if err != nil {
				return Figure{}, err
			}
			ms = append(ms, measurement{
				seconds:   time.Since(start).Seconds(),
				peakBytes: stats.PeakBytes(),
			})
		}
		s.Points = append(s.Points, Point{Size: size, Value: timeMetric(median(ms))})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// SweepFigure measures the PR 5 tentpole: the columnar event sweep against
// the aggregation tree on random-order input — the regime the planner now
// hands to the sweep for decomposable aggregates — plus the sweep's sorted
// fast path (arrival sort skipped) and its long-lived behaviour. The
// acceptance bar recorded in BENCH_PR5.json is a ≥3× median speedup over
// the tree at 64K random-order COUNT with GOMAXPROCS=1.
func SweepFigure(opts Options) (Figure, error) {
	return buildFigure("sweep", "Columnar Event Sweep vs Aggregation Tree",
		"seconds", opts, timeMetric, []seriesSpec{
			{"aggregation-tree random", core.Spec{Algorithm: core.AggregationTree}, genRandom(0)},
			{"sweep random", core.Spec{Algorithm: core.SweepEval}, genRandom(0)},
			{"sweep random ll=80%", core.Spec{Algorithm: core.SweepEval}, genRandom(80)},
			{"sweep sorted", core.Spec{Algorithm: core.SweepEval}, genSorted(0)},
		})
}

// LiveReadFigure measures the PR 9 tentpole: snapshot reads against a live
// evaluator mid-ingestion. The stream lands in 8 chunks; after each chunk a
// reader takes a snapshot and evaluates the full aggregate at that epoch. A
// live read pays one tail sweep plus a sealed-prefix merge (sealed-segment
// results are memoized across epochs, catch-up merges are tournament-
// balanced), where re-evaluating from scratch pays a fresh batch sweep
// over the whole prefix. The gap between those two series prices the epoch
// machinery against naive re-evaluation at this read rate — the live
// evaluator's actual win, reads that never block ingestion and cannot
// tear, is gated by the -race harness, not this figure. The single-read
// and no-read series bound the comparison: ingest+one-read is the live
// path's floor, the plain batch sweep is the cost of the answer itself.
func LiveReadFigure(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "live-read",
		Title:  "Live Snapshot Reads During Ingestion vs Batch Re-evaluation",
		Metric: "seconds",
	}
	f := aggregate.For(opts.Agg)
	const readPoints = 8
	liveReads := Series{Name: "live: 8 snapshot reads mid-ingest"}
	reEval := Series{Name: "batch re-eval: 8 prefix sweeps"}
	liveOnce := Series{Name: "live: ingest + final read"}
	batch := Series{Name: "sweep batch (no mid-stream reads)"}
	for _, size := range opts.Sizes {
		var mLive, mRe, mOnce, mBatch []measurement
		for _, seed := range opts.Seeds {
			rel, err := genRandom(0)(size, seed)
			if err != nil {
				return Figure{}, err
			}
			ts := rel.Tuples
			chunk := (len(ts) + readPoints - 1) / readPoints

			start := time.Now()
			ev := core.NewLive(core.LiveOptions{})
			for lo := 0; lo < len(ts); lo += chunk {
				hi := min(lo+chunk, len(ts))
				if err := ev.AddBatch(ts[lo:hi]); err != nil {
					return Figure{}, err
				}
				snap, err := ev.Snapshot()
				if err != nil {
					return Figure{}, err
				}
				if _, err := snap.Result(f); err != nil {
					return Figure{}, err
				}
			}
			peak := ev.Stats().PeakBytes()
			if err := ev.Close(); err != nil {
				return Figure{}, err
			}
			mLive = append(mLive, measurement{seconds: time.Since(start).Seconds(), peakBytes: peak})

			start = time.Now()
			for lo := 0; lo < len(ts); lo += chunk {
				hi := min(lo+chunk, len(ts))
				sw := newPrefixSweep(f)
				if err := sw.AddBatch(ts[:hi]); err != nil {
					return Figure{}, err
				}
				if _, err := sw.Finish(); err != nil {
					return Figure{}, err
				}
			}
			mRe = append(mRe, measurement{seconds: time.Since(start).Seconds()})

			start = time.Now()
			once := core.NewLive(core.LiveOptions{})
			if err := once.AddBatch(ts); err != nil {
				return Figure{}, err
			}
			snap, err := once.Snapshot()
			if err != nil {
				return Figure{}, err
			}
			if _, err := snap.Result(f); err != nil {
				return Figure{}, err
			}
			if err := once.Close(); err != nil {
				return Figure{}, err
			}
			mOnce = append(mOnce, measurement{seconds: time.Since(start).Seconds()})

			start = time.Now()
			sw := newPrefixSweep(f)
			if err := sw.AddBatch(ts); err != nil {
				return Figure{}, err
			}
			if _, err := sw.Finish(); err != nil {
				return Figure{}, err
			}
			mBatch = append(mBatch, measurement{seconds: time.Since(start).Seconds()})
		}
		liveReads.Points = append(liveReads.Points, Point{Size: size, Value: timeMetric(median(mLive))})
		reEval.Points = append(reEval.Points, Point{Size: size, Value: timeMetric(median(mRe))})
		liveOnce.Points = append(liveOnce.Points, Point{Size: size, Value: timeMetric(median(mOnce))})
		batch.Points = append(batch.Points, Point{Size: size, Value: timeMetric(median(mBatch))})
	}
	fig.Series = []Series{liveReads, reEval, liveOnce, batch}
	return fig, nil
}

// newPrefixSweep is the from-scratch evaluator the live series is compared
// against: a columnar sweep, the fastest batch path on random input.
func newPrefixSweep(f aggregate.Func) core.Evaluator {
	return core.NewSweep(f)
}

// rangeQuerySizes picks the sweep sizes for RangeQueryFigure: the S37
// target range 64K–1M events when the caller asked for the full sweep,
// opts.Sizes untouched in smoke runs (-max-size below 64K).
func rangeQuerySizes(sizes []int) []int {
	for _, n := range sizes {
		if n >= 1<<16 {
			return []int{1 << 16, 1 << 18, 1 << 20}
		}
	}
	return sizes
}

// rangeWindows spreads n windows of the given selectivity across the
// relation lifespan, deterministically, so every strategy answers the
// exact same queries.
func rangeWindows(n int, frac float64) []interval.Interval {
	length := interval.Time(frac * float64(workload.DefaultLifespan))
	if length < 1 {
		length = 1
	}
	span := workload.DefaultLifespan - length
	ws := make([]interval.Interval, n)
	for i := range ws {
		lo := span * interval.Time(i) / interval.Time(n)
		ws[i] = interval.MustNew(lo, lo+length-1)
	}
	return ws
}

// RangeQueryFigure measures the S37 tentpole: range-restricted aggregates
// answered by O(k + log n) partial merges against a resident interval
// index, versus the full columnar sweep (which must absorb every tuple and
// clip), versus a warm result-cache read (the per-query floor: one LRU get
// plus a defensive row copy). Three selectivities bracket the window
// sizes; the one-time index build is its own series so the amortization
// point is visible rather than hidden inside the lookup medians.
func RangeQueryFigure(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	sizes := rangeQuerySizes(opts.Sizes)
	fig := Figure{
		ID:     "range-query",
		Title:  "Range Queries: Interval Index vs Full Sweep vs Result Cache",
		Metric: "seconds",
	}
	f := aggregate.For(opts.Agg)
	const queries = 8
	sels := []struct {
		name string
		frac float64
	}{{"1%", 0.01}, {"10%", 0.10}, {"50%", 0.50}}

	build := Series{Name: "index build (one-time)"}
	idxSeries := make([]Series, len(sels))
	sweepSeries := make([]Series, len(sels))
	cacheSeries := make([]Series, len(sels))
	for i, sel := range sels {
		idxSeries[i] = Series{Name: "index lookup, " + sel.name + " selectivity"}
		sweepSeries[i] = Series{Name: "full sweep, " + sel.name + " selectivity"}
		cacheSeries[i] = Series{Name: "result cache hit, " + sel.name + " selectivity"}
	}
	for _, size := range sizes {
		mBuild := []measurement{}
		mIdx := make([][]measurement, len(sels))
		mSweep := make([][]measurement, len(sels))
		mCache := make([][]measurement, len(sels))
		for _, seed := range opts.Seeds {
			rel, err := genRandom(0)(size, seed)
			if err != nil {
				return Figure{}, err
			}
			ts := rel.Tuples

			// One seed's measurements live in a closure so a single
			// deferred Close covers every error path.
			if err := func() error {
				start := time.Now()
				idx, err := core.NewIntervalIndex(ts)
				if err != nil {
					return err
				}
				defer idx.Close()
				mBuild = append(mBuild, measurement{seconds: time.Since(start).Seconds()})

				for i, sel := range sels {
					ws := rangeWindows(queries, sel.frac)

					start = time.Now()
					for _, w := range ws {
						if _, err := idx.Range(f, w); err != nil {
							return err
						}
					}
					mIdx[i] = append(mIdx[i], measurement{seconds: time.Since(start).Seconds() / queries})

					// The sweep must absorb every tuple regardless of the
					// window, so one evaluation prices any of the queries.
					start = time.Now()
					sw := newPrefixSweep(f)
					if err := sw.AddBatch(ts); err != nil {
						return err
					}
					res, err := sw.Finish()
					if err != nil {
						return err
					}
					res.Clip(ws[0])
					mSweep[i] = append(mSweep[i], measurement{seconds: time.Since(start).Seconds()})

					m, err := cacheHitCost(f, idx, ws)
					if err != nil {
						return err
					}
					mCache[i] = append(mCache[i], m)
				}
				return nil
			}(); err != nil {
				return Figure{}, err
			}
		}
		build.Points = append(build.Points, Point{Size: size, Value: timeMetric(median(mBuild))})
		for i := range sels {
			idxSeries[i].Points = append(idxSeries[i].Points, Point{Size: size, Value: timeMetric(median(mIdx[i]))})
			sweepSeries[i].Points = append(sweepSeries[i].Points, Point{Size: size, Value: timeMetric(median(mSweep[i]))})
			cacheSeries[i].Points = append(cacheSeries[i].Points, Point{Size: size, Value: timeMetric(median(mCache[i]))})
		}
	}
	fig.Series = append(fig.Series, build)
	for i := range sels {
		fig.Series = append(fig.Series, idxSeries[i], sweepSeries[i], cacheSeries[i])
	}
	return fig, nil
}

// cacheHitCost primes a result cache with every window's answer, then times
// the warm Gets: the per-query floor once a result is resident (one LRU
// probe plus the defensive row copy).
func cacheHitCost(f aggregate.Func, idx *core.IntervalIndex, ws []interval.Interval) (measurement, error) {
	rc := core.NewResultCache(len(ws) * 2)
	defer rc.Close()
	for _, w := range ws {
		r, err := idx.Range(f, w)
		if err != nil {
			return measurement{}, err
		}
		rc.Put(core.CacheKey{Relation: "R", Version: "v", Kind: f.Kind(), Window: w}, r)
	}
	start := time.Now()
	for _, w := range ws {
		if _, ok := rc.Get(core.CacheKey{Relation: "R", Version: "v", Kind: f.Kind(), Window: w}); !ok {
			return measurement{}, fmt.Errorf("bench: range-query: primed cache missed")
		}
	}
	return measurement{seconds: time.Since(start).Seconds() / float64(len(ws))}, nil
}

// AblationSpan compares instant grouping against coarse span grouping
// (§7: with far fewer buckets, even simple strategies are fast).
func AblationSpan(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	fig := Figure{
		ID:     "ablation-span",
		Title:  "Instant Grouping vs Span Grouping (1000 spans)",
		Metric: "seconds",
	}
	f := aggregate.For(opts.Agg)

	instant := Series{Name: "instant (ktree sorted k=1)"}
	span := Series{Name: "span grouping"}
	window := interval.MustNew(0, workload.DefaultLifespan-1)
	spanLen := workload.DefaultLifespan / 1000
	for _, size := range opts.Sizes {
		var mi, msp []measurement
		for _, seed := range opts.Seeds {
			rel, err := genSorted(0)(size, seed)
			if err != nil {
				return Figure{}, err
			}
			m, err := runOnce(core.Spec{Algorithm: core.KOrderedTree, K: 1}, f, rel, opts.Sink)
			if err != nil {
				return Figure{}, err
			}
			mi = append(mi, m)

			start := time.Now()
			if _, err := core.GroupBySpan(f, rel.Tuples, spanLen, window); err != nil {
				return Figure{}, err
			}
			msp = append(msp, measurement{seconds: time.Since(start).Seconds()})
		}
		instant.Points = append(instant.Points, Point{Size: size, Value: timeMetric(median(mi))})
		span.Points = append(span.Points, Point{Size: size, Value: timeMetric(median(msp))})
	}
	fig.Series = []Series{instant, span}
	return fig, nil
}

// Table1 renders the paper's Table 1: COUNT over the Employed relation.
func Table1() (string, error) {
	f := aggregate.For(aggregate.Count)
	res, _, err := core.Run(core.Spec{Algorithm: core.AggregationTree}, f,
		relation.Employed().Tuples)
	if err != nil {
		return "", err
	}
	return "== table-1: COUNT(Name) over Employed, grouped by instant\n" + res.String(), nil
}

// Table2 renders the paper's Table 2: k-ordered-percentage examples with
// n=10000 and k=100, rebuilt from the definitional constructions.
func Table2() (string, error) {
	const n, k = 10000, 100
	sorted, err := workload.Generate(workload.Config{
		Tuples: n, Order: workload.Sorted, Seed: 1,
	})
	if err != nil {
		return "", err
	}
	rows := []struct {
		desc  string
		build func() ([]float64, error)
	}{
		{"the tuples are sorted", func() ([]float64, error) {
			p, err := order.KOrderedPercentage(sorted.Tuples, k)
			return []float64{p}, err
		}},
		{"2 tuples 100 places apart are swapped", func() ([]float64, error) {
			ts, err := order.SwapPairs(sorted.Tuples, 1, 100)
			if err != nil {
				return nil, err
			}
			p, err := order.KOrderedPercentage(ts, k)
			return []float64{p}, err
		}},
		{"20 tuples are 100 places from being sorted", func() ([]float64, error) {
			ts, err := order.SwapPairs(sorted.Tuples, 10, 100)
			if err != nil {
				return nil, err
			}
			p, err := order.KOrderedPercentage(ts, k)
			return []float64{p}, err
		}},
		{"1000 tuples are 50 places out of order", func() ([]float64, error) {
			ts, err := order.SwapPairs(sorted.Tuples, 500, 50)
			if err != nil {
				return nil, err
			}
			p, err := order.KOrderedPercentage(ts, k)
			return []float64{p}, err
		}},
		{"10 tuples 1 place out of order, 10 are 2, ..., 10 are 100", func() ([]float64, error) {
			ts, err := order.Staircase(sorted.Tuples, 10, 100)
			if err != nil {
				return nil, err
			}
			p, err := order.KOrderedPercentage(ts, k)
			return []float64{p}, err
		}},
	}
	out := "== table-2: k-ordered-percentages (n=10000, k=100)\n"
	for _, r := range rows {
		ps, err := r.build()
		if err != nil {
			return "", fmt.Errorf("bench: table 2 (%s): %w", r.desc, err)
		}
		out += fmt.Sprintf("%-8.4g %s\n", ps[0], r.desc)
	}
	return out, nil
}
