package query

import (
	"fmt"

	"tempagg/internal/core"
	"tempagg/internal/obs"
)

// RelationInfo is the metadata the optimizer consults (§6.3): size,
// declared ordering properties, and the memory available for evaluation
// structures.
type RelationInfo struct {
	// Tuples is the relation cardinality.
	Tuples int
	// Sorted declares the relation totally ordered by time (e.g. from the
	// storage header's sorted flag).
	Sorted bool
	// KBound, when non-negative, declares the relation k-ordered with this
	// bound — the database administrator's "retroactively bounded"
	// declaration (§6.3). Negative means unknown.
	KBound int
	// SampledK, when positive, is a plan-time k-orderedness estimate
	// obtained by sampling (order.EstimateKOrderedness) rather than declared
	// by the administrator. The cost-based planner may gamble on it to skip
	// the sort: the k-ordered tree rejects its input if the estimate proves
	// low, and the executor then sorts and retries. Zero means not sampled.
	SampledK int
	// MemoryBudget bounds evaluation-structure memory in bytes; 0 means
	// unlimited.
	MemoryBudget int64
	// ExpectedConstantIntervals, when positive, hints how many constant
	// intervals the result will have (few when the granularity is coarse or
	// timestamps cluster); a small value favours the linked list (§6.3).
	ExpectedConstantIntervals int
	// Cost, when enabled, switches the planner to cost-based choice among
	// the §6.3 strategies (see CostModel); otherwise the qualitative rules
	// below apply.
	Cost CostModel
	// Index, when non-nil, is a resident materialized interval index over
	// the relation (core.IntervalIndex, DESIGN.md S37). The planner then
	// prices an index-lookup alternative that answers eligible queries in
	// O(k + log n) partial merges with no relation scan at all.
	Index *core.IntervalIndex
}

// Plan is the optimizer's decision for an instant-grouped query.
type Plan struct {
	// SortFirst asks the executor to sort the relation by time before
	// evaluation — the paper's headline strategy pairs this with the
	// k-ordered tree at k=1 (§7).
	SortFirst bool
	// Tuma selects the two-pass baseline instead of an Evaluator (only via
	// an explicit USING TUMA).
	Tuma bool
	// Snapshot marks an AT-instant query: a direct aggregation pass with no
	// constant-interval structure at all.
	Snapshot bool
	// Partitioned selects the limited-main-memory partitioned evaluation
	// (§5.1/§7): the timeline is cut into Partitions uniform regions and each
	// is evaluated by its own aggregation tree, with results consumed from
	// the streaming ordered merge as shards finish. Only via an explicit
	// USING PARTITIONED [K=n].
	Partitioned bool
	// Partitions is the region count for Partitioned plans.
	Partitions int
	// Live marks a snapshot read against a shared LiveEvaluator: no
	// evaluator is constructed, the epoch's memoized segment results are
	// merged instead (SELECT ... LIVE).
	Live bool
	// SampledK marks a plan whose k-ordered tree trusts a sampled (not
	// declared) disorder bound. The executor treats evaluator rejection as
	// an estimation miss — it sorts the relation and retries with k=1 —
	// instead of failing the query.
	SampledK bool
	// UseIndex marks a plan served from the materialized interval index:
	// no evaluator runs, the answer is assembled from O(log n) node
	// partials per emitted row (S37). Chosen automatically when the
	// relation has a resident index and the query is index-eligible
	// (IndexEligible), or forced with USING INDEX.
	UseIndex bool
	// Cached marks a result served verbatim from the catalog's result
	// cache: nothing was planned or evaluated, the rows were copied out of
	// the LRU under a (relation, version, kind, window) key.
	Cached bool
	// Spec is the evaluator to run (ignored when Tuma or Partitioned is set).
	Spec core.Spec
	// Reason explains the choice, for EXPLAIN-style output.
	Reason string
	// Alternatives lists every strategy the planner priced, chosen one
	// marked, for EXPLAIN and the trace's plan_costs record. Under
	// qualitative (non-cost-based) planning the prices come from the
	// default display model; the ranking is then informational only and may
	// disagree with the qualitative choice.
	Alternatives []obs.PlanCost
	// Prices is the cost model the Alternatives were priced with — the
	// user's model when cost-based planning is on, the default display
	// model otherwise. EXPLAIN ANALYZE reprices it with measured counters
	// for the estimated-vs-actual delta.
	Prices CostModel
}

// strategy names the plan's execution strategy without its parameters (k,
// partition count, a preceding sort): the algorithm label traces and the
// per-algorithm metrics group by.
func (p Plan) strategy() string {
	switch {
	case p.Cached:
		return "result-cache"
	case p.UseIndex:
		return core.IndexLookupAlg
	case p.Live:
		return "live-snapshot"
	case p.Tuma:
		return "tuma-two-pass"
	case p.Snapshot:
		return "snapshot-scan"
	case p.Partitioned:
		return "partitioned"
	}
	return p.Spec.Algorithm.String()
}

// Algorithm names the plan's execution strategy with its parameters, for
// EXPLAIN and the priced alternatives.
func (p Plan) Algorithm() string {
	alg := p.strategy()
	switch alg {
	case "partitioned":
		alg = fmt.Sprintf("partitioned(n=%d)", p.Partitions)
	case core.KOrderedTree.String():
		alg = fmt.Sprintf("%s(k=%d)", alg, p.Spec.K)
	}
	if p.SortFirst {
		alg = "sort + " + alg
	}
	return alg
}

// String renders the plan.
func (p Plan) String() string {
	return fmt.Sprintf("%s — %s", p.Algorithm(), p.Reason)
}

// resolveUsing maps a USING clause to a plan. Only KTREE (k) and
// PARTITIONED (the partition count) take a numeric argument; any other
// algorithm given one is rejected rather than planned without it.
func resolveUsing(q *Query) (Plan, error) {
	var plan Plan
	switch q.Using {
	case "KTREE":
		k := 1
		if q.HasUsingK {
			k = q.UsingK
		}
		if k < 0 {
			return Plan{}, fmt.Errorf("query: USING KTREE requires K >= 0, got %d", k)
		}
		return Plan{Spec: core.Spec{Algorithm: core.KOrderedTree, K: k}}, nil
	case "PARTITIONED":
		// The K argument is reused as the partition count; the evaluator is
		// always the aggregation tree, one per region.
		n := 8
		if q.HasUsingK {
			n = q.UsingK
		}
		if n < 1 {
			return Plan{}, fmt.Errorf("query: USING PARTITIONED requires K >= 1 partitions, got %d", n)
		}
		return Plan{
			Partitioned: true,
			Partitions:  n,
			Spec:        core.Spec{Algorithm: core.AggregationTree},
		}, nil
	case "LIST", "LINKEDLIST":
		plan = Plan{Spec: core.Spec{Algorithm: core.LinkedList}}
	case "TREE", "AGGTREE":
		plan = Plan{Spec: core.Spec{Algorithm: core.AggregationTree}}
	case "BTREE", "BALANCED":
		plan = Plan{Spec: core.Spec{Algorithm: core.BalancedTree}}
	case "SWEEP":
		plan = Plan{Spec: core.Spec{Algorithm: core.SweepEval}}
	case "TUMA":
		plan = Plan{Tuma: true}
	case "INDEX":
		if !IndexEligible(q) {
			return Plan{}, fmt.Errorf("query: USING INDEX serves only plain range-restricted aggregates (no WHERE, GROUP BY, DISTINCT, or span grouping)")
		}
		plan = Plan{UseIndex: true}
	default:
		return Plan{}, fmt.Errorf("query: unknown algorithm %q in USING clause", q.Using)
	}
	if q.HasUsingK {
		return Plan{}, fmt.Errorf("query: USING %s takes no argument, got %d", q.Using, q.UsingK)
	}
	return plan, nil
}

// PlanQuery chooses the evaluation strategy for an instant-grouped query,
// implementing the optimizer reasoning of §6.3:
//
//   - An AT query reduces to a snapshot scan unless an index serves it.
//   - An explicit USING clause otherwise wins.
//   - With very few expected constant intervals the linked list is adequate
//     and cheapest in space.
//   - A sorted relation takes the k-ordered tree with k=1.
//   - A relation declared retroactively bounded (k-ordered) takes the
//     k-ordered tree with that k, with no sorting required.
//   - An unsorted, unbounded relation whose aggregates are all decomposable
//     (COUNT/SUM/AVG) takes the columnar event sweep: two cache-friendly
//     passes and a few radix scatters instead of n·log n pointer-chasing
//     inserts, at a slightly larger working set than the tree.
//   - Otherwise the aggregation tree is best — unless its memory need
//     exceeds the budget, in which case the executor sorts first and runs
//     the k-ordered tree with k=1 (memory is then dearer than the sort).
func PlanQuery(q *Query, info RelationInfo) (Plan, error) {
	if q.At != nil && q.Using != "INDEX" && !(q.Using == "" && info.Index != nil && IndexEligible(q)) {
		// Snapshot reduction: the value at one instant needs no constant
		// intervals — a single aggregation pass over the qualifying tuples.
		// With a resident index (or USING INDEX) the point lookup is one
		// O(log n) root-path merge instead, planned below like any query.
		return Plan{Snapshot: true, Reason: fmt.Sprintf("snapshot at %d: direct aggregation, no constant intervals", *q.At)}, nil
	}
	if q.Using != "" {
		plan, err := resolveUsing(q)
		if err != nil {
			return Plan{}, err
		}
		plan.Reason = "forced by USING clause"
		// A forced plan still shows the priced field so EXPLAIN can compare
		// the user's choice against what the optimizer would have ranked.
		plan.Alternatives, plan.Prices = priceAlternatives(q, info, info.Cost, plan)
		return plan, nil
	}
	if info.Cost.Enabled() {
		return PlanQueryCosted(q, info, info.Cost)
	}
	plan, err := planQualitative(q, info)
	if err != nil {
		return Plan{}, err
	}
	plan.Alternatives, plan.Prices = priceAlternatives(q, info, CostModel{}, plan)
	return plan, nil
}

// IndexEligible reports whether q's shape can be served from a
// materialized interval index: an instant-grouped aggregate over the whole
// relation — optionally range-restricted by VALID OVERLAPS or AT — with no
// WHERE filter, attribute grouping, DISTINCT, or live read. The index
// holds partials over every tuple, so any predicate that drops tuples
// disqualifies it.
func IndexEligible(q *Query) bool {
	if len(q.Where) > 0 || q.GroupAttr != nil || q.Live || q.Temporal == BySpan {
		return false
	}
	return !hasDistinct(q) && len(q.Aggs) > 0
}

// hasDistinct reports whether any select-list aggregate is DISTINCT.
func hasDistinct(q *Query) bool {
	for _, a := range q.Aggs {
		if a.Distinct {
			return true
		}
	}
	return false
}

// planQualitative applies the qualitative §6.3 rules (no cost model).
func planQualitative(q *Query, info RelationInfo) (Plan, error) {
	if info.Index != nil && IndexEligible(q) {
		// A resident index beats every scan-based strategy: the answer is
		// O(k + log n) partial merges, no relation pass at all (S37).
		return Plan{
			UseIndex: true,
			Reason:   "resident interval index: O(k + log n) partial merges, no scan (S37)",
		}, nil
	}
	if n := info.ExpectedConstantIntervals; n > 0 && n <= 64 {
		return Plan{
			Spec:   core.Spec{Algorithm: core.LinkedList},
			Reason: fmt.Sprintf("only ~%d constant intervals expected; the linked list is adequate (§6.3)", n),
		}, nil
	}
	if info.Sorted {
		return Plan{
			Spec:   core.Spec{Algorithm: core.KOrderedTree, K: 1},
			Reason: "relation is sorted: k-ordered tree with k=1 (§7)",
		}, nil
	}
	if info.KBound >= 0 {
		return Plan{
			Spec:   core.Spec{Algorithm: core.KOrderedTree, K: info.KBound},
			Reason: fmt.Sprintf("relation declared retroactively bounded (k=%d): k-ordered tree without sorting (§6.3)", info.KBound),
		}, nil
	}
	// Unsorted, unbounded. The sweep's working set — event columns, radix
	// scratch, emitted rows — is ~6 nodes per tuple, a constant factor above
	// the aggregation tree's 4, so it needs a slightly roomier budget.
	sweepEst := int64(6*info.Tuples+1) * core.NodeBytes
	if decomposableAggs(q) && (info.MemoryBudget == 0 || sweepEst <= info.MemoryBudget) {
		return Plan{
			Spec:   core.Spec{Algorithm: core.SweepEval},
			Reason: fmt.Sprintf("unsorted relation, decomposable aggregates: columnar event sweep (≤%d B)", sweepEst),
		}, nil
	}
	// Estimate the aggregation tree's memory: each tuple adds at most 4
	// nodes (two leaf splits), 16 bytes each.
	est := int64(4*info.Tuples+1) * core.NodeBytes
	if info.MemoryBudget == 0 || est <= info.MemoryBudget {
		return Plan{
			Spec:   core.Spec{Algorithm: core.AggregationTree},
			Reason: fmt.Sprintf("unsorted relation, memory is plentiful (≤%d B): aggregation tree (§6.3)", est),
		}, nil
	}
	return Plan{
		SortFirst: true,
		Spec:      core.Spec{Algorithm: core.KOrderedTree, K: 1},
		Reason: fmt.Sprintf("aggregation tree would need ~%d B > budget %d B: sort then k-ordered tree with k=1 (§6.3)",
			est, info.MemoryBudget),
	}, nil
}

// decomposableAggs reports whether every aggregate in the select list is
// maintainable from a running (count, sum) pair — the precondition for the
// columnar event sweep. The plan is chosen once per query and shared by all
// its aggregates, so one MIN/MAX in the list disqualifies the sweep for the
// whole query.
func decomposableAggs(q *Query) bool {
	for _, a := range q.Aggs {
		if !a.Kind.Decomposable() {
			return false
		}
	}
	return len(q.Aggs) > 0
}
