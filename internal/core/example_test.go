package core_test

import (
	"fmt"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// ExampleRun reproduces Table 1 of the paper: COUNT(Name) over the Employed
// relation, grouped by instant, via the aggregation tree.
func ExampleRun() {
	f := aggregate.For(aggregate.Count)
	res, _, err := core.Run(core.Spec{Algorithm: core.AggregationTree}, f,
		relation.Employed().Tuples)
	if err != nil {
		panic(err)
	}
	for i, row := range res.Rows {
		fmt.Printf("%s %s\n", res.Value(i), row.Interval)
	}
	// Output:
	// 0 [0,6]
	// 1 [7,7]
	// 2 [8,12]
	// 1 [13,17]
	// 3 [18,20]
	// 2 [21,21]
	// 1 [22,∞]
}

// ExampleKTree shows incremental evaluation with garbage collection over a
// sorted stream: memory stays bounded while the full result is produced.
func ExampleKTree() {
	f := aggregate.For(aggregate.Sum)
	kt, err := core.NewKOrderedTree(f, 1)
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < 1000; i++ {
		if err := kt.Add(tuple.MustNew("t", 1, i*10, i*10+4)); err != nil {
			panic(err)
		}
	}
	res, err := kt.Finish()
	if err != nil {
		panic(err)
	}
	fmt.Printf("rows: %d\n", len(res.Rows))
	fmt.Printf("peak nodes stayed small: %t\n", kt.Stats().PeakNodes < 32)
	fmt.Printf("nodes collected: %t\n", kt.Stats().Collected > 1000)
	// Output:
	// rows: 2000
	// peak nodes stayed small: true
	// nodes collected: true
}

// ExampleTuma runs the two-pass baseline; the source is read twice.
func ExampleTuma() {
	src := core.NewSliceSource(relation.Employed().Tuples)
	res, err := core.Tuma(src, aggregate.For(aggregate.Max))
	if err != nil {
		panic(err)
	}
	v, _ := res.At(19)
	fmt.Printf("max salary at 19: %s (passes: %d)\n", v, src.Passes())
	// Output:
	// max salary at 19: 45 (passes: 2)
}

// ExampleGroupBySpan aggregates by fixed-length spans instead of instants.
func ExampleGroupBySpan() {
	ts := []tuple.Tuple{
		tuple.MustNew("a", 10, 0, 14),
		tuple.MustNew("b", 20, 10, 12),
		tuple.MustNew("c", 30, 25, 25),
	}
	res, err := core.GroupBySpan(aggregate.For(aggregate.Sum), ts, 10,
		interval.MustNew(0, 29))
	if err != nil {
		panic(err)
	}
	for i, row := range res.Rows {
		fmt.Printf("%s %s\n", row.Interval, res.Value(i))
	}
	// Output:
	// [0,9] 10
	// [10,19] 30
	// [20,29] 30
}

// ExampleEvaluatePartitioned evaluates with bounded memory by cutting the
// time-line into partitions, each handled in turn by its own tree (§5.1/§7).
func ExampleEvaluatePartitioned() {
	ts := relation.Employed().Tuples
	res, _, err := core.EvaluatePartitioned(
		aggregate.For(aggregate.Count), ts,
		core.PartitionOptions{Boundaries: []interval.Time{10, 20}},
	)
	if err != nil {
		panic(err)
	}
	res.Coalesce()
	v, _ := res.At(19)
	fmt.Printf("count at 19: %s\n", v)
	// Output:
	// count at 19: 3
}

// ExampleResult_Coalesce merges adjacent constant intervals whose values
// are equal — TSQL2 result coalescing.
func ExampleResult_Coalesce() {
	f := aggregate.For(aggregate.Count)
	ts := []tuple.Tuple{
		tuple.MustNew("a", 1, 0, 9),
		tuple.MustNew("b", 1, 10, 19), // count stays 1 across the boundary
	}
	res, _, err := core.Run(core.Spec{Algorithm: core.LinkedList}, f, ts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("before: %d rows\n", len(res.Rows))
	res.Coalesce()
	fmt.Printf("after:  %d rows\n", len(res.Rows))
	// Output:
	// before: 3 rows
	// after:  2 rows
}
