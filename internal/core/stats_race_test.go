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

// TestObservedRunMatchesStats checks the acceptance identity: the counters
// an evaluator publishes through obs.Sink agree with the core.Stats the
// same run returns — allocated = LiveNodes + Collected (the initial node
// included), tuples and collected match exactly, and the peak gauge holds
// the high-water mark.
func TestObservedRunMatchesStats(t *testing.T) {
	specs := []Spec{
		{Algorithm: LinkedList},
		{Algorithm: AggregationTree},
		{Algorithm: KOrderedTree, K: 1},
		{Algorithm: BalancedTree},
	}
	ts := raceTuples(500)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Algorithm.String(), func(t *testing.T) {
			m := obs.NewMetrics(obs.NewRegistry())
			_, stats, err := RunObserved(spec, aggregate.For(aggregate.Count), ts, m)
			if err != nil {
				t.Fatal(err)
			}
			alg := spec.Algorithm.String()
			reg := m.Registry()
			get := func(name string) int64 {
				return reg.CounterVec(name, "", "algorithm").With(alg).Value()
			}
			if got := get(obs.MetricTuplesProcessed); got != int64(stats.Tuples) {
				t.Errorf("tuples metric = %d, stats = %d", got, stats.Tuples)
			}
			if got, want := get(obs.MetricNodesAllocated), int64(stats.LiveNodes+stats.Collected); got != want {
				t.Errorf("allocated metric = %d, stats live+collected = %d", got, want)
			}
			if got := get(obs.MetricNodesCollected); got != int64(stats.Collected) {
				t.Errorf("collected metric = %d, stats = %d", got, stats.Collected)
			}
			peak := reg.GaugeVec(obs.MetricPeakNodes, "", "algorithm").With(alg).Value()
			if peak != int64(stats.PeakNodes) {
				t.Errorf("peak gauge = %d, stats = %d", peak, stats.PeakNodes)
			}
		})
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
