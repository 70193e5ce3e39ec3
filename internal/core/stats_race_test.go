package core

import (
	"sync"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// raceTuples is a small workload whose inserts split nodes on every
// algorithm (interleaved, overlapping intervals in k-ordered arrival).
func raceTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		lo := interval.Time(i)
		ts = append(ts, tuple.MustNew("r", int64(i), lo, lo+10))
	}
	return ts
}

// TestStatsConcurrentSnapshot is the -race regression for the Stats
// contract: a scrape goroutine snapshots counters continuously while the
// evaluation runs. Before statsCell the counters were plain ints and this
// test fails under -race with a read/write conflict; every snapshot must
// also keep PeakNodes ≥ LiveNodes, which needs real parallelism (-cpu 2 or
// more) to catch a reader between grow's live increment and its peak CAS.
func TestStatsConcurrentSnapshot(t *testing.T) {
	specs := []Spec{
		{Algorithm: LinkedList},
		{Algorithm: AggregationTree},
		{Algorithm: KOrderedTree, K: 1},
		{Algorithm: BalancedTree},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			ev, err := New(spec, aggregate.For(aggregate.Count))
			if err != nil {
				t.Fatal(err)
			}
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
					s := ev.Stats()
					if s.LiveNodes < 0 || s.PeakNodes < s.LiveNodes {
						t.Errorf("torn snapshot: %+v", s)
						return
					}
				}
			}()
			for _, tu := range raceTuples(2000) {
				if err := ev.Add(tu); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ev.Finish(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestObservedRunMatchesStats checks the acceptance identity: the one
// counters record an evaluator publishes through obs.Sink agrees, series
// by series, with the counters the same run keeps — allocated = LiveNodes
// + Collected (the initial node included), tuples and collected match
// exactly, the peak gauge holds the high-water mark, and the arena, sweep,
// worker-histogram and GC series hold the run's own figures. The sweep
// rows run over reversed input so the radix sort has work to do; the MIN
// rows take the wedge path, and the fallback row forces the wedge's
// aggregation-tree fallback, whose run records under its own label.
func TestObservedRunMatchesStats(t *testing.T) {
	ts := raceTuples(500)
	rev := make([]tuple.Tuple, len(ts))
	for i := range ts {
		rev[len(ts)-1-i] = ts[i]
	}
	rows := []struct {
		name       string
		spec       Spec
		kind       aggregate.Kind
		ts         []tuple.Tuple
		wedgeBound int
	}{
		{"linked-list", Spec{Algorithm: LinkedList}, aggregate.Count, ts, 0},
		{"aggregation-tree", Spec{Algorithm: AggregationTree}, aggregate.Count, ts, 0},
		{"k-ordered-tree", Spec{Algorithm: KOrderedTree, K: 1}, aggregate.Count, ts, 0},
		{"balanced-tree", Spec{Algorithm: BalancedTree}, aggregate.Count, ts, 0},
		{"sweep", Spec{Algorithm: SweepEval}, aggregate.Count, rev, 0},
		{"sweep-min", Spec{Algorithm: SweepEval}, aggregate.Min, rev, 0},
		{"sweep-min-fallback", Spec{Algorithm: SweepEval}, aggregate.Min, rev, 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			ev, err := NewObserved(row.spec, aggregate.For(row.kind), m)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(row.ts); lo += BatchPage {
				if err := ev.AddBatch(row.ts[lo:min(lo+BatchPage, len(row.ts))]); err != nil {
					t.Fatal(err)
				}
			}
			// The run's own counters. Tree arenas reset on release, so their
			// figures are read before Finish, which allocates no nodes.
			var want obs.EvalCounters
			switch e := ev.(type) {
			case *List:
				want.ArenaSlabs, want.ArenaReused = len(e.ar.slabs), e.ar.freed
			case *Tree:
				want.ArenaSlabs, want.ArenaReused = len(e.ar.slabs), e.ar.freed
			case *KTree:
				want.ArenaSlabs, want.ArenaReused = len(e.ar.slabs), e.ar.freed
			case *BTree:
				want.ArenaSlabs, want.ArenaReused = len(e.ar.slabs), e.ar.freed
			case *Sweep:
				e.WedgeBound = row.wedgeBound
			}
			if _, err := ev.Finish(); err != nil {
				t.Fatal(err)
			}
			stats := ev.Stats()
			switch e := ev.(type) {
			case *KTree:
				if !e.gcRan {
					t.Fatal("k-ordered tree never collected; the GC series is untested")
				}
				want.GCThreshold = int64(e.gcAt)
			case *Sweep:
				want.ArenaSlabs, want.ArenaReused = e.ar.counters()
				want.SweepEvents, want.SweepRadixPasses, want.SweepFallbacks = e.events, e.radixPasses, e.fallbacks
				if want.SweepFallbacks != min(row.wedgeBound, 1) {
					t.Fatalf("sweep fell back %d times, want %d", want.SweepFallbacks, min(row.wedgeBound, 1))
				}
			}
			alg := row.spec.Algorithm.String()
			reg := m.Registry()
			counter := func(name string) int64 {
				return reg.CounterVec(name, "", "algorithm").With(alg).Value()
			}
			gauge := func(name string) int64 {
				return reg.GaugeVec(name, "", "algorithm").With(alg).Value()
			}
			for _, c := range []struct {
				series    string
				got, want int64
			}{
				{obs.MetricTuplesProcessed, counter(obs.MetricTuplesProcessed), int64(stats.Tuples)},
				{obs.MetricNodesAllocated, counter(obs.MetricNodesAllocated), int64(stats.LiveNodes + stats.Collected)},
				{obs.MetricNodesCollected, counter(obs.MetricNodesCollected), int64(stats.Collected)},
				{obs.MetricPeakNodes, gauge(obs.MetricPeakNodes), int64(stats.PeakNodes)},
				{obs.MetricGCThreshold, gauge(obs.MetricGCThreshold), want.GCThreshold},
				{obs.MetricArenaSlabs, counter(obs.MetricArenaSlabs), int64(want.ArenaSlabs)},
				{obs.MetricArenaReused, counter(obs.MetricArenaReused), int64(want.ArenaReused)},
				{obs.MetricSweepEvents, counter(obs.MetricSweepEvents), int64(want.SweepEvents)},
				{obs.MetricSweepRadix, counter(obs.MetricSweepRadix), int64(want.SweepRadixPasses)},
				{obs.MetricSweepFallbacks, counter(obs.MetricSweepFallbacks), int64(want.SweepFallbacks)},
				{obs.MetricIndexNodes, gauge(obs.MetricIndexNodes), 0},
				{obs.MetricIndexLookups, counter(obs.MetricIndexLookups), 0},
				{obs.MetricIndexMerges, counter(obs.MetricIndexMerges), 0},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, run's own counter = %d", c.series, c.got, c.want)
				}
			}
			if row.wedgeBound > 0 {
				fallbackTuples := reg.CounterVec(obs.MetricTuplesProcessed, "", "algorithm").With(AggregationTree.String()).Value()
				if fallbackTuples != int64(len(row.ts)) {
					t.Errorf("fallback tree recorded %d tuples, want %d", fallbackTuples, len(row.ts))
				}
			}
		})
	}
}

// TestSetSinkNilSafe pins the obs.Sink contract at the evaluator boundary:
// a nil Sink means "instrumentation disabled", so setSink(nil) must leave
// every evaluator's Add/Finish cycle running with observability off.
func TestSetSinkNilSafe(t *testing.T) {
	f := aggregate.For(aggregate.Sum)
	kt, err := NewKOrderedTree(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	evaluators := map[string]Evaluator{
		"linked-list":      NewLinkedList(f),
		"aggregation-tree": NewAggregationTree(f),
		"balanced-tree":    NewBalancedTree(f),
		"k-ordered-tree":   kt,
		"sweep":            NewSweep(f),
	}
	for name, ev := range evaluators {
		ss, ok := ev.(sinkSetter)
		if !ok {
			t.Errorf("%s: evaluator does not implement sinkSetter", name)
			continue
		}
		ss.setSink(nil)
		for i := int64(0); i < 4; i++ {
			if err := ev.Add(mustTuple(t, "x", 1, interval.Time(i), interval.Time(i+10))); err != nil {
				t.Fatalf("%s: Add with nil sink: %v", name, err)
			}
		}
		if _, err := ev.Finish(); err != nil {
			t.Fatalf("%s: Finish with nil sink: %v", name, err)
		}
	}
}

// TestRunObservedNilSinkMatchesRun pins the nil-sink contract: RunObserved
// with a nil sink is Run, bit for bit.
func TestRunObservedNilSinkMatchesRun(t *testing.T) {
	ts := raceTuples(100)
	res1, stats1, err1 := Run(Spec{Algorithm: AggregationTree}, aggregate.For(aggregate.Count), ts)
	res2, stats2, err2 := RunObserved(Spec{Algorithm: AggregationTree}, aggregate.For(aggregate.Count), ts, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if stats1 != stats2 {
		t.Errorf("stats differ: %+v vs %+v", stats1, stats2)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Errorf("row counts differ: %d vs %d", len(res1.Rows), len(res2.Rows))
	}
}
