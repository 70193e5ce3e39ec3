package tempagg_test

import (
	"path/filepath"
	"testing"

	"tempagg"
)

// TestIntegrationEndToEnd drives the whole system at moderate scale:
// generate a Table 3 workload, persist it, inspect it, evaluate it with
// every strategy (streamed from disk and in memory), and cross-check the
// results — the complete adoption path a downstream user would take.
func TestIntegrationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 10_000
	dir := t.TempDir()

	// 1. Generate a retroactively bounded feed and persist it.
	rel, err := tempagg.Generate(tempagg.WorkloadConfig{
		Tuples:       n,
		LongLivedPct: 20,
		EventPct:     10,
		Order:        tempagg.WorkloadKOrdered,
		K:            40,
		KPct:         0.08,
		Seed:         99,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "Feed"
	path := filepath.Join(dir, "Feed.rel")
	if err := tempagg.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}

	// 2. Metadata checks: the declared disorder holds.
	k := tempagg.KOrderedness(rel.Tuples)
	if k == 0 || k > 40 {
		t.Fatalf("k-orderedness = %d, want in (0, 40]", k)
	}
	pct, err := tempagg.KOrderedPercentage(rel.Tuples, 40)
	if err != nil {
		t.Fatal(err)
	}
	if pct < 0.07 || pct > 0.09 {
		t.Fatalf("k-ordered-percentage = %.4f", pct)
	}

	// 3. Evaluate with every strategy; all must agree.
	results := map[string]*tempagg.Result{}
	for name, spec := range map[string]tempagg.Spec{
		"list":  {Algorithm: tempagg.LinkedList},
		"tree":  {Algorithm: tempagg.AggregationTree},
		"btree": {Algorithm: tempagg.BalancedTree},
		"ktree": {Algorithm: tempagg.KOrderedTree, K: 40},
	} {
		res, _, err := tempagg.ComputeByInstant(rel, tempagg.Sum, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}
	tuma, err := tempagg.ComputeTuma(tempagg.NewSliceSource(rel.Tuples), tempagg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	results["tuma"] = tuma
	window, err := tempagg.NewInterval(0, 1_099_999)
	if err != nil {
		t.Fatal(err)
	}
	part, _, err := tempagg.ComputePartitioned(rel, tempagg.Sum, tempagg.PartitionOptions{
		Boundaries: tempagg.UniformBoundaries(window, 8),
		SpillDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	results["partitioned"] = part
	base := results["list"]
	for name, res := range results {
		if !base.Equal(res) {
			t.Fatalf("%s disagrees with the linked list", name)
		}
	}

	// 4. The ktree must have garbage-collected and stayed small.
	_, stats, err := tempagg.ComputeByInstant(rel, tempagg.Count,
		tempagg.Spec{Algorithm: tempagg.KOrderedTree, K: 40})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collected == 0 {
		t.Fatal("no gc on k-ordered input")
	}
	_, treeStats, err := tempagg.ComputeByInstant(rel, tempagg.Count,
		tempagg.Spec{Algorithm: tempagg.AggregationTree})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakNodes*4 > treeStats.PeakNodes {
		t.Fatalf("ktree peak %d not ≪ tree peak %d", stats.PeakNodes, treeStats.PeakNodes)
	}

	// 5. Queries streamed from the file match in-memory execution.
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM Feed",
		"SELECT AVG(Salary), MAX(Salary) FROM Feed WHERE Salary > 60000",
		"SELECT SUM(Salary) FROM Feed VALID OVERLAPS 250000 750000",
	} {
		mem, err := tempagg.Query(sql, rel, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for gi := range mem.Groups {
			for ri := range mem.Groups[gi].Results {
				if err := validateAnyPartition(mem.Groups[gi].Results[ri]); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
		}
	}

	// 6. Coalescing the relation then re-aggregating COUNT(DISTINCT) over
	// the coalesced view still yields a valid history.
	coalesced := tempagg.RelationFromTuples("Feed", tempagg.CoalesceTuples(rel.Tuples))
	qres, err := tempagg.Query("SELECT COUNT(Name) FROM Feed", coalesced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := qres.Groups[0].Result.Validate(); err != nil {
		t.Fatal(err)
	}
}

func validateAnyPartition(res *tempagg.Result) error {
	lo := res.Rows[0].Interval.Start
	hi := res.Rows[len(res.Rows)-1].Interval.End
	return res.ValidatePartition(lo, hi)
}
