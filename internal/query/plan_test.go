package query

import (
	"strings"
	"testing"

	"tempagg/internal/core"
)

func planFor(t *testing.T, sql string, info RelationInfo) Plan {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanQuery(q, info)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const planSQL = "SELECT COUNT(Name) FROM R"

// TestOptimizerStrategies encodes §6.3's decision table.
func TestOptimizerStrategies(t *testing.T) {
	// Sorted relation → k-ordered tree with k=1.
	p := planFor(t, planSQL, RelationInfo{Tuples: 100000, Sorted: true, KBound: -1})
	if p.Spec.Algorithm != core.KOrderedTree || p.Spec.K != 1 || p.SortFirst {
		t.Fatalf("sorted: %v", p)
	}

	// Retroactively bounded relation → k-ordered tree, no sorting.
	p = planFor(t, planSQL, RelationInfo{Tuples: 100000, KBound: 40})
	if p.Spec.Algorithm != core.KOrderedTree || p.Spec.K != 40 || p.SortFirst {
		t.Fatalf("k-bounded: %v", p)
	}

	// Unsorted with plentiful memory → the columnar sweep for decomposable
	// aggregates, the aggregation tree for MIN/MAX.
	p = planFor(t, planSQL, RelationInfo{Tuples: 100000, KBound: -1})
	if p.Spec.Algorithm != core.SweepEval {
		t.Fatalf("unsorted, unlimited memory, COUNT: %v", p)
	}
	p = planFor(t, "SELECT MIN(Salary) FROM R", RelationInfo{Tuples: 100000, KBound: -1})
	if p.Spec.Algorithm != core.AggregationTree {
		t.Fatalf("unsorted, unlimited memory, MIN: %v", p)
	}
	// One non-decomposable aggregate in the list disqualifies the sweep for
	// the whole query (the plan is shared).
	p = planFor(t, "SELECT COUNT(Name), MAX(Salary) FROM R", RelationInfo{Tuples: 100000, KBound: -1})
	if p.Spec.Algorithm != core.AggregationTree {
		t.Fatalf("unsorted, mixed aggregates: %v", p)
	}

	// Unsorted with tight memory → sort first, then ktree(1).
	p = planFor(t, planSQL, RelationInfo{Tuples: 100000, KBound: -1, MemoryBudget: 1024})
	if !p.SortFirst || p.Spec.Algorithm != core.KOrderedTree || p.Spec.K != 1 {
		t.Fatalf("unsorted, tight memory: %v", p)
	}

	// Few expected constant intervals → linked list is adequate.
	p = planFor(t, planSQL, RelationInfo{Tuples: 100000, KBound: -1, ExpectedConstantIntervals: 12})
	if p.Spec.Algorithm != core.LinkedList {
		t.Fatalf("few intervals: %v", p)
	}
}

func TestOptimizerUsingOverridesEverything(t *testing.T) {
	p := planFor(t, planSQL+" USING LIST", RelationInfo{Tuples: 10, Sorted: true, KBound: -1})
	if p.Spec.Algorithm != core.LinkedList {
		t.Fatalf("USING LIST ignored: %v", p)
	}
	p = planFor(t, planSQL+" USING TUMA", RelationInfo{Tuples: 10, Sorted: true, KBound: -1})
	if !p.Tuma {
		t.Fatalf("USING TUMA ignored: %v", p)
	}
	p = planFor(t, planSQL+" USING KTREE", RelationInfo{Tuples: 10, KBound: -1})
	if p.Spec.Algorithm != core.KOrderedTree || p.Spec.K != 1 {
		t.Fatalf("USING KTREE default k: %v", p)
	}
	// USING SWEEP forces the sweep even where the planner would never pick
	// it (sorted input, non-decomposable aggregate — the wedge handles it).
	p = planFor(t, "SELECT MIN(Salary) FROM R USING SWEEP", RelationInfo{Tuples: 10, Sorted: true, KBound: -1})
	if p.Spec.Algorithm != core.SweepEval {
		t.Fatalf("USING SWEEP ignored: %v", p)
	}
}

func TestPlanString(t *testing.T) {
	p := planFor(t, planSQL, RelationInfo{Tuples: 100, Sorted: true, KBound: -1})
	if !strings.Contains(p.String(), "k-ordered-tree(k=1)") {
		t.Fatalf("plan string = %q", p.String())
	}
	p = planFor(t, planSQL, RelationInfo{Tuples: 100000, KBound: -1, MemoryBudget: 16})
	if !strings.Contains(p.String(), "sort + ") {
		t.Fatalf("plan string = %q", p.String())
	}
	p = planFor(t, planSQL+" USING TUMA", RelationInfo{})
	if !strings.Contains(p.String(), "tuma-two-pass") {
		t.Fatalf("plan string = %q", p.String())
	}
}

func TestResolveUsingRejectsNegativeK(t *testing.T) {
	if _, err := Parse(planSQL + " USING KTREE -1"); err == nil {
		t.Fatal("negative K must be rejected")
	}
}

// TestUsingSweepParallelK: USING SWEEP takes no argument, so a worker count
// (or any other number) fails at parse.
func TestUsingSweepParallelK(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM R USING SWEEP 4",
		"SELECT COUNT(Name) FROM R USING SWEEP -1",
	} {
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "USING SWEEP takes no argument") {
			t.Fatalf("%s: err = %v, want the no-argument rejection", sql, err)
		}
	}
	plan, err := PlanQuery(mustParse(t, "SELECT COUNT(Name) FROM R USING SWEEP"), RelationInfo{Tuples: 10, KBound: -1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spec != (core.Spec{Algorithm: core.SweepEval}) {
		t.Fatalf("USING SWEEP planned %+v", plan.Spec)
	}
}
