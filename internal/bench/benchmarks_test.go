package bench

import (
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// Go-native benchmarks over the hot evaluation paths, complementing the
// harness's wall-clock figures with allocation counts: every benchmark
// reports allocs/op so `go test -bench . ./internal/bench` shows where the
// arena and column pool pay off. Run with -benchtime to taste.

const benchTuples = 1 << 13

func benchRelation(b *testing.B, order workload.Order) *relation.Relation {
	b.Helper()
	rel, err := workload.Generate(workload.Config{
		Tuples: benchTuples, Order: order, Seed: 101,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

func benchEval(b *testing.B, spec core.Spec, kind aggregate.Kind, order workload.Order) {
	b.Helper()
	rel := benchRelation(b, order)
	f := aggregate.For(kind)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := core.Run(spec, f, rel.Tuples)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkSweepRandomCount(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.SweepEval}, aggregate.Count, workload.Random)
}

func BenchmarkSweepSortedCount(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.SweepEval}, aggregate.Count, workload.Sorted)
}

func BenchmarkSweepRandomMin(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.SweepEval}, aggregate.Min, workload.Random)
}

func BenchmarkAggregationTreeRandomCount(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.AggregationTree}, aggregate.Count, workload.Random)
}

func BenchmarkBalancedTreeRandomCount(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.BalancedTree}, aggregate.Count, workload.Random)
}

func BenchmarkKTreeSortedCount(b *testing.B) {
	benchEval(b, core.Spec{Algorithm: core.KOrderedTree, K: 1}, aggregate.Count, workload.Sorted)
}

func BenchmarkPartitionedSweepRandomCount(b *testing.B) {
	rel := benchRelation(b, workload.Random)
	f := aggregate.For(aggregate.Count)
	boundaries := core.UniformBoundaries(
		interval.MustNew(0, workload.DefaultLifespan-1), 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.EvaluatePartitioned(f, rel.Tuples, core.PartitionOptions{
			Boundaries: boundaries, Sweep: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
