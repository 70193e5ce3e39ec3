package bench

import (
	"fmt"
	"strings"
	"time"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// Claim is one of the paper's qualitative findings, checked by measurement.
type Claim struct {
	// ID names the claim (e.g. "fig6-tree-beats-list").
	ID string
	// Statement is the paper's finding being verified.
	Statement string
	// Passed reports whether the measurement supports the claim.
	Passed bool
	// Detail records the measured numbers behind the verdict.
	Detail string
	// Timed marks a verdict that compares wall-clock times; the others
	// compare deterministic counters.
	Timed bool
}

// String renders a PASS/FAIL line.
func (c Claim) String() string {
	verdict := "PASS"
	if !c.Passed {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s  %-28s %s — %s", verdict, c.ID, c.Statement, c.Detail)
}

// timeOf measures one evaluation in seconds, reporting the fastest of three
// runs to suppress GC and scheduling noise.
func timeOf(spec core.Spec, f aggregate.Func, rel *relation.Relation) (float64, core.Stats, error) {
	best := 0.0
	var stats core.Stats
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		_, s, err := core.Run(spec, f, rel.Tuples)
		if err != nil {
			return 0, core.Stats{}, err
		}
		elapsed := time.Since(start).Seconds()
		if trial == 0 || elapsed < best {
			best = elapsed
			stats = s
		}
	}
	return best, stats, nil
}

// VerifyClaims re-measures the paper's §6 findings at a reduced scale and
// reports a PASS/FAIL verdict for each. It is the repository's automated
// reproduction check: `benchharness -verify`.
func VerifyClaims(size int, seed int64) ([]Claim, error) {
	if size <= 0 {
		size = 1 << 13
	}
	f := aggregate.For(aggregate.Count)
	gen := func(order workload.Order, longPct, k int) (*relation.Relation, error) {
		cfg := workload.Config{Tuples: size, LongLivedPct: longPct, Order: order, Seed: seed}
		if order == workload.KOrdered {
			cfg.K = k
			cfg.KPct = KPct
		}
		return workload.Generate(cfg)
	}

	random0, err := gen(workload.Random, 0, 0)
	if err != nil {
		return nil, err
	}
	random80, err := gen(workload.Random, 80, 0)
	if err != nil {
		return nil, err
	}
	sorted0, err := gen(workload.Sorted, 0, 0)
	if err != nil {
		return nil, err
	}
	sorted80, err := gen(workload.Sorted, 80, 0)
	if err != nil {
		return nil, err
	}
	kord40, err := gen(workload.KOrdered, 0, 40)
	if err != nil {
		return nil, err
	}
	kord40ll, err := gen(workload.KOrdered, 80, 40)
	if err != nil {
		return nil, err
	}

	list := core.Spec{Algorithm: core.LinkedList}
	tree := core.Spec{Algorithm: core.AggregationTree}
	btree := core.Spec{Algorithm: core.BalancedTree}
	k1 := core.Spec{Algorithm: core.KOrderedTree, K: 1}
	k40 := core.Spec{Algorithm: core.KOrderedTree, K: 40}

	var claims []Claim
	add := func(id, statement string, passed bool, detail string, args ...any) {
		claims = append(claims, Claim{
			ID: id, Statement: statement, Passed: passed,
			Detail: fmt.Sprintf(detail, args...),
		})
	}
	addTimed := func(id, statement string, passed bool, detail string, args ...any) {
		add(id, statement, passed, detail, args...)
		claims[len(claims)-1].Timed = true
	}

	// Figure 6: tree ≫ list on random input.
	listT, _, err := timeOf(list, f, random0)
	if err != nil {
		return nil, err
	}
	treeT, _, err := timeOf(tree, f, random0)
	if err != nil {
		return nil, err
	}
	addTimed("fig6-tree-beats-list",
		"aggregation tree beats the linked list on random input by a wide margin",
		treeT*5 < listT, "list %.4gs vs tree %.4gs (×%.1f)", listT, treeT, listT/treeT)

	treeT80, _, err := timeOf(tree, f, random80)
	if err != nil {
		return nil, err
	}
	addTimed("fig6-tree-longlived-insensitive",
		"the tree's time is insensitive to the long-lived percentage",
		treeT80 < 3*treeT && treeT < 3*treeT80,
		"ll=0%%: %.4gs, ll=80%%: %.4gs", treeT, treeT80)

	// S33: the columnar sweep beats the aggregation tree on random input.
	sweepT, _, err := timeOf(core.Spec{Algorithm: core.SweepEval}, f, random0)
	if err != nil {
		return nil, err
	}
	addTimed("sweep-beats-tree",
		"the columnar event sweep beats the aggregation tree on random input",
		sweepT < treeT, "sweep %.4gs vs tree %.4gs (×%.1f)", sweepT, treeT, treeT/sweepT)

	// Figure 7: ordered relations.
	k1T, k1Stats, err := timeOf(k1, f, sorted0)
	if err != nil {
		return nil, err
	}
	treeSortedT, _, err := timeOf(tree, f, sorted0)
	if err != nil {
		return nil, err
	}
	listSortedT, _, err := timeOf(list, f, sorted0)
	if err != nil {
		return nil, err
	}
	addTimed("fig7-ktree1-wins-sorted",
		"ktree k=1 over a sorted relation beats both the tree and the list",
		k1T < treeSortedT && k1T < listSortedT,
		"k1 %.4gs, tree %.4gs, list %.4gs", k1T, treeSortedT, listSortedT)
	addTimed("fig7-tree-degenerates-sorted",
		"the aggregation tree degenerates on sorted input",
		treeSortedT > 3*treeT,
		"sorted %.4gs vs random %.4gs", treeSortedT, treeT)

	// Figure 8: the long-lived paradox.
	treeSorted80T, _, err := timeOf(tree, f, sorted80)
	if err != nil {
		return nil, err
	}
	addTimed("fig8-paradoxical-improvement",
		"the sorted-input tree improves with many long-lived tuples",
		treeSorted80T < treeSortedT,
		"ll=80%% %.4gs vs ll=0%% %.4gs", treeSorted80T, treeSortedT)

	// Figure 9: memory ordering.
	_, treeStats, err := timeOf(tree, f, random0)
	if err != nil {
		return nil, err
	}
	_, listStats, err := timeOf(list, f, random0)
	if err != nil {
		return nil, err
	}
	_, k40Stats, err := timeOf(k40, f, kord40)
	if err != nil {
		return nil, err
	}
	add("fig9-memory-ordering",
		"memory: tree > list > ktree k=40 > ktree k=1",
		treeStats.PeakNodes > listStats.PeakNodes &&
			listStats.PeakNodes > k40Stats.PeakNodes &&
			k40Stats.PeakNodes > k1Stats.PeakNodes,
		"tree %d, list %d, k40 %d, k1 %d nodes",
		treeStats.PeakNodes, listStats.PeakNodes, k40Stats.PeakNodes, k1Stats.PeakNodes)
	add("fig9-tree-twice-list",
		"the tree uses about twice the list's memory (2 vs 1 node per unique timestamp)",
		float64(treeStats.PeakNodes) > 1.5*float64(listStats.PeakNodes) &&
			float64(treeStats.PeakNodes) < 2.5*float64(listStats.PeakNodes),
		"ratio %.2f", float64(treeStats.PeakNodes)/float64(listStats.PeakNodes))

	// §6.2 prose: the gc memory cliff under long-lived tuples.
	_, k40llStats, err := timeOf(k40, f, kord40ll)
	if err != nil {
		return nil, err
	}
	add("s6.2-ktree-longlived-memory",
		"long-lived tuples inflate the k-ordered tree's memory",
		k40llStats.PeakNodes > 10*k40Stats.PeakNodes,
		"ll=80%% %d vs ll=0%% %d nodes", k40llStats.PeakNodes, k40Stats.PeakNodes)

	// §7: the balanced tree repairs the sorted-input degeneration.
	btreeSortedT, _, err := timeOf(btree, f, sorted0)
	if err != nil {
		return nil, err
	}
	addTimed("s7-balanced-tree",
		"the balanced aggregation tree repairs the sorted-input worst case",
		btreeSortedT*3 < treeSortedT,
		"balanced %.4gs vs unbalanced %.4gs", btreeSortedT, treeSortedT)

	return claims, nil
}

// FormatClaims renders the verdicts, one per line, with a summary.
func FormatClaims(claims []Claim) string {
	var b strings.Builder
	passed := 0
	for _, c := range claims {
		fmt.Fprintln(&b, c)
		if c.Passed {
			passed++
		}
	}
	fmt.Fprintf(&b, "%d/%d claims reproduced\n", passed, len(claims))
	return b.String()
}
