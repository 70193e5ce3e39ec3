package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/order"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// GroupResult is the time-varying aggregate for one attribute group. Key is
// empty when the query has no attribute grouping. Queries with several
// aggregates in the select list (§3) carry one result per aggregate, in
// select-list order; Result and Stats mirror the first for convenience.
type GroupResult struct {
	Key      string
	Result   *core.Result
	Stats    core.Stats
	Results  []*core.Result
	AllStats []core.Stats
}

// QueryResult is the full outcome of executing a query.
type QueryResult struct {
	Query  *Query
	Plan   Plan
	Groups []GroupResult
	// Explain is the rendered EXPLAIN [ANALYZE] report; empty for plain
	// queries. EXPLAIN ANALYZE results carry their aggregate rows in Groups
	// exactly as the plain query would, with the report appended after them.
	Explain string
}

// String renders the result in the paper's Table 1 style, one block per
// group and aggregate. EXPLAIN output follows the rows, so an EXPLAIN
// ANALYZE rendering is the plain query's rendering plus the report.
func (qr *QueryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s\n-- plan: %s\n", qr.Query, qr.Plan)
	for _, g := range qr.Groups {
		if g.Key != "" {
			fmt.Fprintf(&b, "-- group %s\n", g.Key)
		}
		for _, res := range g.Results {
			b.WriteString(res.String())
		}
	}
	b.WriteString(qr.Explain)
	return b.String()
}

// matches evaluates one WHERE conjunct against a tuple.
func (c Condition) matches(t tuple.Tuple) bool {
	if c.IsStr {
		return cmpOrdered(strings.Compare(t.Name, c.Str), c.Op)
	}
	var v int64
	switch c.Attr {
	case AttrValue:
		v = t.Value
	case AttrStart:
		v = t.Valid.Start
	case AttrEnd:
		v = t.Valid.End
	default:
		return false
	}
	switch {
	case v < c.Num:
		return cmpOrdered(-1, c.Op)
	case v > c.Num:
		return cmpOrdered(1, c.Op)
	}
	return cmpOrdered(0, c.Op)
}

func cmpOrdered(sign int, op CompareOp) bool {
	switch op {
	case "=":
		return sign == 0
	case "<>":
		return sign != 0
	case "<":
		return sign < 0
	case "<=":
		return sign <= 0
	case ">":
		return sign > 0
	case ">=":
		return sign >= 0
	}
	return false
}

// Execute runs a parsed query over an in-memory relation. info supplies the
// optimizer's metadata; pass nil to derive it from the relation itself
// (cardinality and an order check).
func Execute(q *Query, rel *relation.Relation, info *RelationInfo) (*QueryResult, error) {
	return ExecuteTraced(q, rel, info, nil)
}

// ExecuteTraced is Execute with per-query observability: the planning and
// evaluation stages are recorded as spans on tr, evaluators publish their
// §6 counters through the trace's sink, and the final stats snapshot is
// attached. A nil tr disables all of it at the cost of a nil check.
func ExecuteTraced(q *Query, rel *relation.Relation, info *RelationInfo, tr *obs.QueryTrace) (*QueryResult, error) {
	if q.Relation != rel.Name {
		return nil, fmt.Errorf("query: relation %q not found (have %q)", q.Relation, rel.Name)
	}
	if q.Live {
		// Live reads go through ExecuteLive against a catalog-managed
		// snapshot; a static relation has no epoch to read.
		return nil, fmt.Errorf("query: relation %q is not a live relation", q.Relation)
	}
	if q.Explain == ExplainAnalyze && tr == nil {
		// ANALYZE needs the span tree even with no observer installed; a
		// standalone trace records it without a sink or trace ring.
		tr = obs.NewQueryTrace(q.String())
	}
	meta := RelationInfo{Tuples: rel.Len(), Sorted: rel.IsSorted(), KBound: -1}
	if info != nil {
		meta = *info
	}
	planSpan := tr.StartSpan("plan")
	var plan Plan
	if q.At != nil && q.Using != "INDEX" && !(q.Using == "" && meta.Index != nil && IndexEligible(q)) {
		// Snapshot reduction: the value at one instant needs no constant
		// intervals — a single aggregation pass over the qualifying tuples.
		// With a resident index (or USING INDEX) the point lookup is one
		// O(log n) root-path merge instead, planned below like any query.
		plan = Plan{Snapshot: true, Reason: fmt.Sprintf("snapshot at %d: direct aggregation, no constant intervals", *q.At)}
	} else {
		// With cost-based planning on an unsorted relation of undeclared
		// disorder, sample a k-orderedness estimate first so the planner can
		// price the no-sort k-ordered tree — §6.3's retroactively-bounded
		// case, discovered rather than declared.
		if meta.Cost.Enabled() && !meta.Sorted && meta.KBound < 0 && meta.SampledK <= 0 {
			meta.SampledK = order.EstimateKOrderedness(rel.Tuples, 0, estimateSeed)
		}
		var err error
		plan, err = PlanQuery(q, meta)
		if err != nil {
			return nil, err
		}
	}
	planSpan.End()
	tracePlan(tr, plan)
	if q.Explain == ExplainPlan {
		// Plan only: render the tree with every priced alternative and skip
		// execution entirely.
		qr := &QueryResult{Query: q, Plan: plan}
		qr.Explain = RenderExplain(qr, nil)
		return qr, nil
	}
	// An index plan needs its index: the catalog's resident one when
	// supplied, otherwise built here over the relation — worth it only
	// under USING INDEX (the qualitative planner never chooses the index
	// without a resident handle), kept for the query's duration.
	var idx *core.IntervalIndex
	if plan.UseIndex {
		idx = meta.Index
		if idx == nil {
			buildSpan := tr.StartSpan("index-build")
			built, err := core.NewIntervalIndex(rel.Tuples)
			buildSpan.End()
			if err != nil {
				return nil, err
			}
			built.SetSink(tr.Sink())
			defer built.Close()
			idx = built
		}
	}

	execSpan := tr.StartSpan("execute")
	execCtx := execSpan.Context()

	// VALID window and WHERE filter.
	filtered := rel.Tuples
	if len(q.Where) > 0 || q.Window != nil {
		filtered = make([]tuple.Tuple, 0, len(rel.Tuples))
		for _, t := range rel.Tuples {
			if q.Window != nil && !t.Valid.Overlaps(*q.Window) {
				continue
			}
			keep := true
			for _, c := range q.Where {
				if !c.matches(t) {
					keep = false
					break
				}
			}
			if keep {
				filtered = append(filtered, t)
			}
		}
	}

	// Attribute grouping (GROUP BY Name): partition, then aggregate each
	// group independently — Epstein's temporary-relation strategy with the
	// interval machinery per group (§3, §4.2).
	groups := [][]tuple.Tuple{filtered}
	keys := []string{""}
	if q.GroupAttr != nil {
		byKey := make(map[string][]tuple.Tuple)
		for _, t := range filtered {
			byKey[t.Name] = append(byKey[t.Name], t)
		}
		keys = keys[:0]
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		groups = groups[:0]
		for _, k := range keys {
			groups = append(groups, byKey[k])
		}
	}

	qr := &QueryResult{Query: q, Plan: plan}
	for i, group := range groups {
		gr := GroupResult{Key: keys[i]}
		var dedupedGroup []tuple.Tuple
		for _, a := range q.Aggs {
			input := group
			if a.Distinct {
				// Duplicate elimination before processing (§7), computed
				// once per group.
				if dedupedGroup == nil {
					dedupedGroup = relation.Deduplicate(group)
				}
				input = dedupedGroup
			}
			f := aggregate.For(a.Kind)
			var (
				res   *core.Result
				stats core.Stats
				err   error
			)
			switch {
			case plan.UseIndex:
				// Index eligibility guarantees a single unfiltered group, so
				// input plays no part: the answer is assembled from node
				// partials alone.
				res, err = indexLookup(idx, q, f, tr)
			case q.At != nil:
				res = snapshotResult(f, input, *q.At)
				stats = core.Stats{Tuples: len(input)}
				sinkTuples(tr, "snapshot-scan", len(input))
			case q.Temporal == BySpan:
				res, err = executeSpan(q, f, input)
			default:
				res, stats, err = executeInstant(plan, meta, f, input, tr, execCtx)
				if err == nil && q.Window != nil {
					res.Clip(*q.Window)
				}
			}
			if err != nil {
				return nil, err
			}
			traceStats(tr, stats)
			gr.Results = append(gr.Results, res)
			gr.AllStats = append(gr.AllStats, stats)
		}
		gr.Result = gr.Results[0]
		gr.Stats = gr.AllStats[0]
		qr.Groups = append(qr.Groups, gr)
	}
	execSpan.End()
	tr.SetGroups(len(qr.Groups))
	if q.Explain == ExplainAnalyze {
		qr.Explain = RenderExplain(qr, tr)
	}
	return qr, nil
}

// tracePlan records the optimizer's decision — and every alternative it
// priced — on the trace, labelled by the plan's strategy.
func tracePlan(tr *obs.QueryTrace, plan Plan) {
	tr.SetPlan(plan.strategy(), plan.Spec.K, plan.String())
	tr.SetPlanCosts(plan.Alternatives)
}

// traceStats folds one evaluator's final counters into the trace.
func traceStats(tr *obs.QueryTrace, s core.Stats) {
	tr.AddStats(s.Tuples, s.LiveNodes, s.PeakNodes, s.Collected)
}

// sinkTuples publishes tuple counts for the evaluator-less strategies
// (snapshot scans and Tuma's two-pass baseline), which bypass core's own
// sink instrumentation.
func sinkTuples(tr *obs.QueryTrace, algorithm string, n int) {
	if s := tr.Sink(); s != nil {
		s.Evaluator(algorithm).TuplesProcessed(n)
	}
}

// indexLookup answers one aggregate of an index-served plan: the point
// lookup for AT, the clipped window partition for VALID OVERLAPS, the full
// [0, ∞] result otherwise. Rows are bit-identical to the evaluator paths'.
func indexLookup(idx *core.IntervalIndex, q *Query, f aggregate.Func, tr *obs.QueryTrace) (*core.Result, error) {
	span := tr.StartSpan(core.IndexLookupAlg)
	defer span.End()
	var (
		res *core.Result
		err error
	)
	switch {
	case q.At != nil:
		res, err = idx.At(f, *q.At)
	case q.Window != nil:
		res, err = idx.Range(f, *q.Window)
	default:
		res, err = idx.Result(f)
	}
	if err != nil {
		return nil, err
	}
	span.SetAttr("rows", strconv.Itoa(len(res.Rows)))
	return res, nil
}

// executeIndexOnly serves an entire index-eligible query from a resident
// index: no scan, no materialized relation, one lookup per select-list
// aggregate. The caller has already verified plan.UseIndex and a non-nil
// index.
func executeIndexOnly(q *Query, plan Plan, idx *core.IntervalIndex, tr *obs.QueryTrace) (*QueryResult, error) {
	execSpan := tr.StartSpan("execute")
	gr := GroupResult{}
	for _, a := range q.Aggs {
		res, err := indexLookup(idx, q, aggregate.For(a.Kind), tr)
		if err != nil {
			execSpan.End()
			return nil, err
		}
		gr.Results = append(gr.Results, res)
		gr.AllStats = append(gr.AllStats, core.Stats{})
	}
	execSpan.End()
	gr.Result = gr.Results[0]
	gr.Stats = gr.AllStats[0]
	tr.SetGroups(1)
	qr := &QueryResult{Query: q, Plan: plan, Groups: []GroupResult{gr}}
	if q.Explain == ExplainAnalyze {
		qr.Explain = RenderExplain(qr, tr)
	}
	return qr, nil
}

// snapshotResult folds the tuples valid at the instant into a single-row
// result covering [at, at].
func snapshotResult(f aggregate.Func, ts []tuple.Tuple, at interval.Time) *core.Result {
	state := f.Zero()
	for _, t := range ts {
		if t.Valid.Contains(at) {
			state = f.Add(state, t.Value)
		}
	}
	return &core.Result{Func: f, Rows: []core.Row{{
		Interval: interval.At(at),
		State:    state,
	}}}
}

func executeInstant(plan Plan, meta RelationInfo, f aggregate.Func, ts []tuple.Tuple, tr *obs.QueryTrace, ctx obs.TraceContext) (*core.Result, core.Stats, error) {
	if plan.Tuma {
		res, err := core.Tuma(core.NewSliceSource(ts), f)
		sinkTuples(tr, "tuma-two-pass", 2*len(ts))
		return res, core.Stats{Tuples: 2 * len(ts)}, err
	}
	if plan.Partitioned {
		return executePartitioned(plan, f, ts, tr, ctx)
	}
	input := ts
	needSorted := plan.SortFirst ||
		(plan.Spec.Algorithm == core.KOrderedTree && meta.KBound < 0 && plan.Spec.K <= 1)
	if needSorted && !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i].Less(ts[j]) }) {
		// Sorting is also required when the plan assumes order the filter
		// may have preserved but grouping cannot guarantee; sorting a copy
		// keeps the caller's relation untouched.
		input = append([]tuple.Tuple(nil), ts...)
		sort.SliceStable(input, func(i, j int) bool { return input[i].Less(input[j]) })
	}
	res, stats, err := core.RunTraced(plan.Spec, f, input, tr.Sink(), ctx)
	if err != nil && plan.SampledK {
		// The sampled disorder bound proved too low and the k-ordered tree
		// rejected a tuple. Pay the sort the estimate tried to avoid and
		// rerun at k=1.
		input = append([]tuple.Tuple(nil), ts...)
		sort.SliceStable(input, func(i, j int) bool { return input[i].Less(input[j]) })
		res, stats, err = core.RunTraced(core.Spec{Algorithm: core.KOrderedTree, K: 1}, f, input, tr.Sink(), ctx)
	}
	return res, stats, err
}

// estimateSeed makes plan-time k-orderedness sampling deterministic, so the
// same query over the same relation always gets the same plan.
const estimateSeed = 0x5eed

// executePartitioned runs the limited-main-memory evaluation and consumes
// the streaming ordered merge: each partition's coalesced rows are appended
// to the result the moment that shard (and its predecessors) finish, so the
// query path never waits on a whole-evaluation barrier.
func executePartitioned(plan Plan, f aggregate.Func, ts []tuple.Tuple, tr *obs.QueryTrace, ctx obs.TraceContext) (*core.Result, core.Stats, error) {
	opts := core.PartitionOptions{
		Boundaries: partitionBoundaries(ts, plan.Partitions),
		Parallel:   plan.Partitions,
		Sink:       tr.Sink(),
		Trace:      ctx,
		// Decomposable aggregates sweep each shard; MIN/MAX keeps the
		// aggregation tree, whose cost does not depend on overlap depth.
		Sweep: f.Kind().Decomposable(),
	}
	st, err := core.EvaluatePartitionedStream(f, core.NewSliceSource(ts), opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res := &core.Result{Func: f}
	for chunk := range st.Chunks() {
		res.Rows = append(res.Rows, chunk.Rows...)
	}
	stats, err := st.Wait()
	if err != nil {
		return nil, core.Stats{}, err
	}
	return res, stats, nil
}

// partitionBoundaries derives uniform cut points from the tuples' finite
// lifespan. Open-ended tuples do not extend it — they are clipped into the
// final [last boundary, ∞] partition; with no finite spread there is a
// single partition.
func partitionBoundaries(ts []tuple.Tuple, n int) []interval.Time {
	if len(ts) == 0 {
		return nil
	}
	lo, hi := ts[0].Valid.Start, interval.Time(0)
	for _, t := range ts {
		if t.Valid.Start < lo {
			lo = t.Valid.Start
		}
		end := t.Valid.End
		if end == interval.Forever {
			end = t.Valid.Start
		}
		if end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return nil
	}
	return core.UniformBoundaries(interval.MustNew(lo, hi), n)
}

func executeSpan(q *Query, f aggregate.Func, ts []tuple.Tuple) (*core.Result, error) {
	// An explicit finite VALID window defines the spans directly.
	if q.Window != nil && q.Window.End != interval.Forever {
		return core.GroupBySpan(f, ts, q.Span, *q.Window)
	}
	// Otherwise span grouping needs a finite window: the relation's
	// lifespan, rounded so the window starts at the origin.
	end := interval.Time(0)
	for _, t := range ts {
		if t.Valid.End == interval.Forever {
			return nil, fmt.Errorf("query: GROUP BY SPAN requires a finite lifespan; tuple %v is open-ended", t)
		}
		if t.Valid.End > end {
			end = t.Valid.End
		}
	}
	// Round the window up to whole spans so the last span is not clipped
	// by an accident of the data.
	if rem := (end + 1) % q.Span; rem != 0 {
		end += q.Span - rem
	}
	window := interval.MustNew(interval.Origin, end)
	return core.GroupBySpan(f, ts, q.Span, window)
}

// Run parses and executes a query string over rel in one call.
func Run(sql string, rel *relation.Relation, info *RelationInfo) (*QueryResult, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Execute(q, rel, info)
}
