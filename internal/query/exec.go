package query

import (
	"fmt"
	"slices"
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

// accepts reports whether the tuple passes the query's window and WHERE
// conditions.
func (q *Query) accepts(t tuple.Tuple) bool {
	return (q.Window == nil || t.Valid.Overlaps(*q.Window)) && q.where(t)
}

// where reports whether the tuple passes the query's WHERE conditions.
func (q *Query) where(t tuple.Tuple) bool {
	for _, c := range q.Where {
		if !c.matches(t) {
			return false
		}
	}
	return true
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
	var meta RelationInfo
	if info != nil {
		meta = *info
	} else {
		meta = RelationInfo{Tuples: rel.Len(), Sorted: rel.IsSorted(), KBound: -1}
	}
	// With cost-based planning on an unsorted relation of undeclared
	// disorder, sample a k-orderedness estimate first so the planner can
	// price the no-sort k-ordered tree — §6.3's retroactively-bounded case,
	// discovered rather than declared. Only a resident slice can be sampled.
	if meta.Cost.Enabled() && !meta.Sorted && meta.KBound < 0 && meta.SampledK <= 0 {
		meta.SampledK = order.EstimateKOrderedness(rel.Tuples, 0, estimateSeed)
	}
	return executeSource(q, sliceSource{core.NewSliceSource(rel.Tuples)}, meta, tr)
}

// tupleSource is a rescannable tuple stream (Tuma reads it twice) with a
// time-sorted view of itself, and the name of its route for the execute
// span: memory, file or image. The sorted view holds at least the tuples
// that overlap the window w (nil for all); it is returned with its tuple
// count and the func that releases it.
type tupleSource interface {
	core.TupleSource
	sorted(w *interval.Interval) (core.TupleSource, int, func(), error)
	route() string
}

// sliceSource is an in-memory relation; its sorted view is the relation
// itself when already in order, otherwise a sorted copy, which keeps the
// caller's relation untouched.
type sliceSource struct{ *core.SliceSource }

func (s sliceSource) sorted(*interval.Interval) (core.TupleSource, int, func(), error) {
	ts := s.Tuples
	less := func(i, j int) bool { return ts[i].Less(ts[j]) }
	if !sort.SliceIsSorted(ts, less) {
		ts = slices.Clone(ts)
		sort.SliceStable(ts, less)
	}
	return sliceSource{core.NewSliceSource(ts)}, len(ts), func() {}, nil
}

func (sliceSource) route() string { return "memory" }

// executeSource is the one static query executor, behind the in-memory, the
// file and the image route. It plans once, then makes a single pass — source →
// filter → group → sink — over the relation (§6).
func executeSource(q *Query, src tupleSource, meta RelationInfo, tr *obs.QueryTrace) (*QueryResult, error) {
	if q.Live {
		// A static relation has no epoch to read; see ExecuteLive.
		return nil, fmt.Errorf("query: relation %q is not a live relation", q.Relation)
	}
	if q.Explain == ExplainAnalyze && tr == nil {
		// ANALYZE needs the span tree even with no observer installed; a
		// standalone trace records it without a sink or trace ring.
		tr = obs.NewQueryTrace(q.String())
	}
	planSpan := tr.StartSpan("plan")
	plan, err := PlanQuery(q, meta)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	tr.SetPlan(plan.strategy(), plan.Spec.K, plan.String())
	tr.SetPlanCosts(plan.Alternatives)
	qr := &QueryResult{Query: q, Plan: plan}
	if q.Explain == ExplainPlan {
		// Plan only: no tuple is read.
		qr.Explain = RenderExplain(qr, nil)
		return qr, nil
	}
	x := &executor{q: q, plan: plan, meta: meta, tr: tr}
	qr.Groups, err = x.pass(src)
	if err != nil && plan.SampledK {
		// The sampled disorder bound proved too low and the k-ordered tree
		// rejected a tuple. Pay the sort the estimate tried to avoid and
		// rerun the pass at k=1.
		x.plan = Plan{SortFirst: true, Spec: core.Spec{Algorithm: core.KOrderedTree, K: 1}}
		qr.Groups, err = x.pass(src)
	}
	if err != nil {
		return nil, err
	}
	tr.SetGroups(len(qr.Groups))
	if q.Explain == ExplainAnalyze {
		qr.Explain = RenderExplain(qr, tr)
	}
	return qr, nil
}

// needsSort is the one rule for sorted input: the sort-first strategy, or a
// k-ordered tree whose k the input is not known to respect — the relation
// is neither sorted nor declared at most k-disordered, and k is below its
// cardinality. A sampled bound is trusted; a miss reruns the pass sorted.
// Span grouping never runs the plan's evaluator, so it never sorts.
func needsSort(q *Query, plan Plan, meta RelationInfo) bool {
	if q.Temporal == BySpan {
		return false
	}
	k := plan.Spec.K
	return plan.SortFirst || plan.Spec.Algorithm == core.KOrderedTree && !plan.SampledK &&
		!meta.Sorted && !(meta.KBound >= 0 && meta.KBound <= k) && k < meta.Tuples
}

// executor carries one query's pass.
type executor struct {
	q    *Query
	plan Plan
	meta RelationInfo
	tr   *obs.QueryTrace
}

// add appends one aggregate's result to gr, restricted to the query's VALID
// window (span grouping derives its own), and traces its counters.
func (x *executor) add(gr *GroupResult, res *core.Result, s core.Stats) {
	if x.q.Window != nil && x.q.Temporal != BySpan {
		res.Clip(*x.q.Window)
	}
	if gr.Results == nil {
		gr.Result, gr.Stats = res, s
	}
	gr.Results = append(gr.Results, res)
	gr.AllStats = append(gr.AllStats, s)
	traceStats(x.tr, s)
}

// pass reads the relation inside the execute span and produces every
// group's results. Ungrouped Tuma makes two real scans of the filtered
// source per aggregate, the cost the single-scan algorithms remove (§4.1).
func (x *executor) pass(src tupleSource) ([]GroupResult, error) {
	span := x.tr.StartSpan("execute")
	span.SetAttr("source", src.route())
	if !x.plan.Tuma || x.q.GroupAttr != nil || hasDistinct(x.q) || x.q.Temporal == BySpan {
		groups, err := x.scan(src, span)
		span.End()
		if err != nil {
			return nil, err
		}
		return x.finish(groups)
	}
	defer span.End()
	var gr GroupResult
	fs := &filteredSource{q: x.q, src: src}
	for i, a := range x.q.Aggs {
		if i > 0 {
			if err := fs.Reset(); err != nil {
				return nil, err
			}
		}
		fs.n = 0
		res, err := core.Tuma(fs, aggregate.For(a.Kind))
		if err != nil {
			return nil, err
		}
		x.add(&gr, res, sinkTuples(x.tr, "tuma-two-pass", fs.n))
	}
	return []GroupResult{gr}, nil
}

// group is one attribute group's share of the scan: the page being filled,
// a sink per aggregate, and every tuple when a sink needs the whole input.
type group struct {
	page, all, deduped []tuple.Tuple
	collects           bool
	sinks              []sink
}

// scan is the pass's one read of the relation, sorted first when the plan
// needs ordered input: each tuple the query accepts joins its group's page,
// and full pages go to the group's sinks.
func (x *executor) scan(src tupleSource, span *obs.Span) (map[string]*group, error) {
	s := &scanState{x: x, groups: map[string]*group{}}
	if x.q.GroupAttr == nil {
		// Even with no qualifying tuple: the one empty constant interval.
		s.single = &group{}
		s.groups[""] = s.single
	}
	if x.plan.UseIndex && x.meta.Index != nil {
		// A resident index answers from its node partials alone.
		return s.groups, nil
	}
	var in core.TupleSource = src
	if needsSort(x.q, x.plan, x.meta) {
		// The paper's sort-then-ktree strategy (§6.3/§7).
		sortSpan := span.StartChild("sort")
		sorted, n, release, err := src.sorted(x.q.Window)
		sortSpan.SetAttr("tuples", strconv.Itoa(n))
		sortSpan.End()
		if err != nil {
			return nil, err
		}
		defer release()
		in = sorted
	}
	return s.groups, s.read(in)
}

// scanState routes one pass's tuples to their groups. single is the one
// group of a query without GROUP BY, found once rather than per tuple.
type scanState struct {
	x      *executor
	groups map[string]*group
	single *group
}

// read delivers every tuple of in that overlaps the VALID window to add.
// Resident sources are read by index; an image is tested on its time
// columns before a tuple is built.
func (s *scanState) read(in core.TupleSource) error {
	w := s.x.q.Window
	switch src := in.(type) {
	case *imageSource:
		img, err := src.image()
		if err != nil {
			return err
		}
		if s.single != nil && s.x.plan.Snapshot {
			// Without groups to register, add's instant test can come
			// first, on the columns.
			at := interval.At(*s.x.q.At)
			w = &at
		}
		for i := range img.Len() {
			if w != nil && !img.Overlaps(i, *w) {
				continue
			}
			t, err := img.Tuple(i)
			if err == nil {
				err = s.add(t)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case sliceSource:
		for _, t := range src.Tuples {
			if w != nil && !t.Valid.Overlaps(*w) {
				continue
			}
			if err := s.add(t); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		t, ok, err := in.Next()
		if err != nil || !ok {
			return err
		}
		if w != nil && !t.Valid.Overlaps(*w) {
			continue
		}
		if err := s.add(t); err != nil {
			return err
		}
	}
}

// add applies WHERE to one windowed tuple and appends it to its group's
// page, feeding the page to the group's sinks when it fills. A snapshot
// plan drops a tuple not valid at its instant before buffering it, but
// only after registering its group: AT … GROUP BY reports every group that
// passes WHERE, with COUNT 0 where no tuple covers the instant.
func (s *scanState) add(t tuple.Tuple) error {
	q := s.x.q
	if !q.where(t) {
		return nil
	}
	g := s.single
	if g == nil {
		if g = s.groups[t.Name]; g == nil {
			g = &group{}
			s.groups[t.Name] = g
		}
	}
	if s.x.plan.Snapshot && !t.Valid.Contains(*q.At) {
		return nil
	}
	if g.page = append(g.page, t); len(g.page) == core.BatchPage {
		return s.x.feed(g)
	}
	return nil
}

// feed hands a group's page to each of its sinks, creating them on the
// group's first page.
func (x *executor) feed(g *group) error {
	if g.sinks == nil {
		for _, a := range x.q.Aggs {
			s, err := x.newSink(g, a)
			if err != nil {
				return err
			}
			g.sinks = append(g.sinks, s)
		}
	}
	if g.collects {
		g.all = append(g.all, g.page...)
	}
	for _, s := range g.sinks {
		if err := s.add(g.page); err != nil {
			return err
		}
	}
	g.page = g.page[:0]
	return nil
}

// finish feeds each group its last page and collects its sinks' results,
// in key order.
func (x *executor) finish(groups map[string]*group) ([]GroupResult, error) {
	span := x.tr.StartSpan("finish")
	defer span.End()
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupResult, len(keys))
	for i, k := range keys {
		g := groups[k]
		if err := x.feed(g); err != nil {
			return nil, err
		}
		out[i].Key = k
		for _, s := range g.sinks {
			res, stats, err := s.finish(span.Context())
			if err != nil {
				return nil, err
			}
			x.add(&out[i], res, stats)
		}
	}
	return out, nil
}

// sink consumes one group's filtered tuples for one select-list aggregate,
// a page at a time, then produces its result.
type sink struct {
	add    func(page []tuple.Tuple) error
	finish func(ctx obs.TraceContext) (*core.Result, core.Stats, error)
}

// newSink returns g's sink for one aggregate: a streaming one where the
// plan allows, otherwise one that evaluates the group's whole input —
// buffered once per group, however many aggregates need it.
func (x *executor) newSink(g *group, a AggSpec) (sink, error) {
	f := aggregate.For(a.Kind)
	if !a.Distinct && !x.plan.UseIndex && x.q.Temporal != BySpan && !x.plan.Tuma && !x.plan.Partitioned {
		return x.stream(f)
	}
	g.collects = true
	return sink{
		add: func([]tuple.Tuple) error { return nil },
		finish: func(ctx obs.TraceContext) (*core.Result, core.Stats, error) {
			if !a.Distinct {
				return x.whole(f, g.all, ctx)
			}
			// Duplicate elimination before processing (§7), once per group.
			if g.deduped == nil {
				g.deduped = relation.Deduplicate(g.all)
			}
			return x.whole(f, g.deduped, ctx)
		},
	}, nil
}

// stream returns the streaming sink for one aggregate: the AT snapshot
// fold, or the plan's evaluator fed through its batch-ingestion path.
func (x *executor) stream(f aggregate.Func) (sink, error) {
	if x.plan.Snapshot {
		// The value at one instant needs no constant intervals, only a
		// running fold of the tuples valid then.
		state, n := f.Zero(), 0
		return sink{
			add: func(page []tuple.Tuple) error {
				// The scan passes only tuples valid at the instant.
				for _, t := range page {
					state = f.Add(state, t.Value)
				}
				n += len(page)
				return nil
			},
			finish: func(obs.TraceContext) (*core.Result, core.Stats, error) {
				row := core.Row{Interval: interval.At(*x.q.At), State: state}
				return &core.Result{Func: f, Rows: []core.Row{row}}, sinkTuples(x.tr, "snapshot-scan", n), nil
			},
		}, nil
	}
	ev, err := core.NewObserved(x.plan.Spec, f, x.tr.Sink())
	if err != nil {
		return sink{}, err
	}
	return sink{add: ev.AddBatch, finish: func(ctx obs.TraceContext) (*core.Result, core.Stats, error) {
		// A sweep evaluator sorts and scans in Finish; its spans belong to
		// the finish stage.
		core.SetTraceContext(ev, ctx)
		res, err := ev.Finish()
		return res, ev.Stats(), err
	}}, nil
}

// whole evaluates one aggregate over a group's whole filtered input.
func (x *executor) whole(f aggregate.Func, ts []tuple.Tuple, ctx obs.TraceContext) (*core.Result, core.Stats, error) {
	switch {
	case x.plan.UseIndex:
		res, err := x.lookup(f, ts, ctx)
		return res, core.Stats{}, err
	case x.q.Temporal == BySpan:
		res, err := executeSpan(x.q, f, ts)
		return res, core.Stats{}, err
	case x.plan.Tuma:
		res, err := core.Tuma(core.NewSliceSource(ts), f)
		return res, sinkTuples(x.tr, "tuma-two-pass", 2*len(ts)), err
	case x.plan.Partitioned:
		// The limited-main-memory evaluation (§5.1/§7). Decomposable
		// aggregates sweep each shard; MIN/MAX keeps the aggregation tree,
		// whose cost does not depend on overlap depth.
		res, stats, err := core.EvaluatePartitioned(f, ts, core.PartitionOptions{
			Boundaries: partitionBoundaries(ts, x.plan.Partitions),
			Sink:       x.tr.Sink(),
			Trace:      ctx,
			Sweep:      f.Kind().Decomposable(),
		})
		return res, stats, err
	}
	// DISTINCT under a streaming strategy.
	s, err := x.stream(f)
	if err == nil {
		err = s.add(ts)
	}
	if err != nil {
		return nil, core.Stats{}, err
	}
	return s.finish(ctx)
}

// lookup answers one aggregate of an index plan from node partials alone:
// the AT instant, the VALID window or [0, ∞], with rows bit-identical to
// the evaluators'. With no resident index, the first lookup builds one over
// ts — eligibility makes it the whole window-filtered relation — and the
// query's other aggregates reuse it.
func (x *executor) lookup(f aggregate.Func, ts []tuple.Tuple, ctx obs.TraceContext) (*core.Result, error) {
	if x.meta.Index == nil {
		span := ctx.StartChild("index-build")
		idx, err := core.NewIntervalIndex(ts)
		span.End()
		if err != nil {
			return nil, err
		}
		idx.SetSink(x.tr.Sink())
		x.meta.Index = idx
	}
	window := interval.Universe()
	if x.q.At != nil {
		window = interval.At(*x.q.At)
	} else if x.q.Window != nil {
		window = *x.q.Window
	}
	span := ctx.StartChild(core.IndexLookupAlg)
	defer span.End()
	res, err := x.meta.Index.Range(f, window)
	if err != nil {
		return nil, err
	}
	span.SetAttr("rows", strconv.Itoa(len(res.Rows)))
	return res, nil
}

// traceStats folds one evaluator's final counters into the trace.
func traceStats(tr *obs.QueryTrace, s core.Stats) {
	tr.AddStats(s.Tuples, s.LiveNodes, s.PeakNodes, s.Collected)
}

// sinkTuples publishes the tuple count of an evaluator-less strategy
// (snapshot scans, live snapshot reads and Tuma's two-pass baseline) as
// its one counters record, and returns it as the strategy's stats.
func sinkTuples(tr *obs.QueryTrace, algorithm string, n int) core.Stats {
	core.Publish(tr.Sink(), algorithm, obs.EvalCounters{Tuples: n})
	return core.Stats{Tuples: n}
}

// estimateSeed makes plan-time k-orderedness sampling deterministic, so the
// same query over the same relation always gets the same plan.
const estimateSeed = 0x5eed

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
