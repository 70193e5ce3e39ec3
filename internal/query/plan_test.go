package query

import (
	"fmt"
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

// TestUsingSweepParallelK: every algorithm name in a USING clause, with and
// without a numeric argument. Only KTREE and PARTITIONED take one; any
// other name given one fails at parse, so no argument is dropped unseen.
func TestUsingSweepParallelK(t *testing.T) {
	checkPlan := func(sql string, want Plan) {
		t.Helper()
		plan, err := PlanQuery(mustParse(t, sql), RelationInfo{Tuples: 10, KBound: -1})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if plan.Spec != want.Spec || plan.Tuma != want.Tuma || plan.UseIndex != want.UseIndex ||
			plan.Partitioned != want.Partitioned || plan.Partitions != want.Partitions {
			t.Fatalf("%s planned %+v, want %+v", sql, plan, want)
		}
	}
	tree := core.Spec{Algorithm: core.AggregationTree}
	for _, c := range []struct {
		using string
		want  Plan // the plan without an argument
		arg   int  // an accepted argument, 0 when none is
		withK Plan // the plan with arg
	}{
		{using: "LIST", want: Plan{Spec: core.Spec{Algorithm: core.LinkedList}}},
		{using: "LINKEDLIST", want: Plan{Spec: core.Spec{Algorithm: core.LinkedList}}},
		{using: "TREE", want: Plan{Spec: tree}},
		{using: "AGGTREE", want: Plan{Spec: tree}},
		{using: "BTREE", want: Plan{Spec: core.Spec{Algorithm: core.BalancedTree}}},
		{using: "BALANCED", want: Plan{Spec: core.Spec{Algorithm: core.BalancedTree}}},
		{using: "SWEEP", want: Plan{Spec: core.Spec{Algorithm: core.SweepEval}}},
		{using: "TUMA", want: Plan{Tuma: true}},
		{using: "INDEX", want: Plan{UseIndex: true}},
		{using: "KTREE", want: Plan{Spec: core.Spec{Algorithm: core.KOrderedTree, K: 1}},
			arg: 4, withK: Plan{Spec: core.Spec{Algorithm: core.KOrderedTree, K: 4}}},
		{using: "PARTITIONED", want: Plan{Partitioned: true, Partitions: 8, Spec: tree},
			arg: 4, withK: Plan{Partitioned: true, Partitions: 4, Spec: tree}},
	} {
		sql := "SELECT COUNT(Name) FROM R USING " + c.using
		checkPlan(sql, c.want)
		if c.arg != 0 {
			checkPlan(fmt.Sprintf("%s %d", sql, c.arg), c.withK)
			continue
		}
		for _, arg := range []string{" 5", " -1"} {
			_, err := Parse(sql + arg)
			if want := "USING " + c.using + " takes no argument"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s%s: err = %v, want %q", sql, arg, err, want)
			}
		}
	}
}
