package query

import (
	"fmt"
	"os"
	"sort"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// ExecuteFile executes a query directly against a relation file. Whenever
// the plan allows it the tuples stream from the paged scanner through the
// evaluators without materializing the relation — the paper's "single
// segmented scan of the input relation" (§6); Tuma's baseline performs its
// two passes as two real scans of the file. Plans that require sorting
// first, span grouping without an explicit finite window, or attribute
// grouping under Tuma fall back to materializing.
//
// info may be nil; the file header then supplies the optimizer's metadata
// (cardinality and the sorted flag).
func ExecuteFile(q *Query, path string, info *RelationInfo, sopts relation.ScanOptions) (*QueryResult, error) {
	return ExecuteFileTraced(q, path, info, sopts, nil)
}

// ExecuteFileTraced is ExecuteFile with per-query observability: planning
// and evaluation stages become spans on tr, evaluators publish their §6
// counters through the trace's sink, and the final stats snapshot is
// attached. A nil tr disables all of it — unless the query is an EXPLAIN
// ANALYZE, which records a standalone trace for its report.
func ExecuteFileTraced(q *Query, path string, info *RelationInfo, sopts relation.ScanOptions, tr *obs.QueryTrace) (*QueryResult, error) {
	if q.Explain == ExplainAnalyze && tr == nil {
		tr = obs.NewQueryTrace(q.String())
	}
	qr, err := executeFileTraced(q, path, info, sopts, tr)
	if err == nil && q.Explain == ExplainAnalyze && qr.Explain == "" {
		// The streaming paths return plain results; the materializing path
		// delegates to ExecuteTraced, which renders the report itself.
		qr.Explain = RenderExplain(qr, tr)
	}
	return qr, err
}

func executeFileTraced(q *Query, path string, info *RelationInfo, sopts relation.ScanOptions, tr *obs.QueryTrace) (*QueryResult, error) {
	sc, err := relation.Open(path, sopts)
	if err != nil {
		return nil, err
	}
	defer sc.Close()

	meta := RelationInfo{Tuples: sc.Count(), Sorted: sc.Sorted(), KBound: -1}
	if sopts.RandomizePages {
		meta.Sorted = false // a randomized scan destroys physical order
	}
	if info != nil {
		meta = *info
	}
	planSpan := tr.StartSpan("plan")
	plan, err := PlanQuery(q, meta)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	tracePlan(tr, plan)
	if q.Explain == ExplainPlan && q.At == nil {
		// Plan only (AT queries re-plan in the in-memory executor, whose
		// snapshot reduction this file-level plan does not see).
		qr := &QueryResult{Query: q, Plan: plan}
		qr.Explain = RenderExplain(qr, nil)
		return qr, nil
	}

	if plan.UseIndex && meta.Index != nil && q.Explain != ExplainPlan {
		// Served entirely from the resident index: the relation file is
		// never scanned — the whole point of materializing the partials.
		return executeIndexOnly(q, plan, meta.Index, tr)
	}

	anyDistinct := false
	for _, a := range q.Aggs {
		anyDistinct = anyDistinct || a.Distinct
	}
	// A small-k tree needs ordered input; when the scan cannot guarantee it
	// (unsorted file, no declared bound), the executor must sort first —
	// which requires materializing.
	ktreeNeedsSort := plan.Spec.Algorithm == core.KOrderedTree && !plan.Tuma &&
		meta.KBound < plan.Spec.K && plan.Spec.K < meta.Tuples && !meta.Sorted
	// Partitioned plans materialize: the routing pass needs the relation's
	// lifespan for boundary placement, which a single forward scan cannot
	// supply up front.
	// Index plans without a resident handle (USING INDEX on a bare file)
	// materialize: the in-memory executor builds the index over the loaded
	// tuples. The zero-valued Spec would otherwise stream as a linked list.
	streamable := q.Temporal == ByInstant && q.At == nil && !plan.UseIndex &&
		!anyDistinct && !plan.Partitioned && !(ktreeNeedsSort && !plan.SortFirst) &&
		(!plan.Tuma || (q.GroupAttr == nil && len(q.Aggs) == 1))
	if !streamable {
		rel, err := scanAll(sc, q.Relation)
		if err != nil {
			return nil, err
		}
		// The in-memory executor re-plans (it may choose the snapshot
		// reduction) and records its own spans on the same trace.
		return ExecuteTraced(q, rel, &meta, tr)
	}
	if plan.SortFirst || ktreeNeedsSort {
		// The paper's sort-then-ktree strategy, out of core: external merge
		// sort the file, then stream the sorted copy (§6.3/§7).
		if err := sc.Close(); err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		tmp, err := os.CreateTemp("", "tempagg-sorted-*.rel")
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		tmpPath := tmp.Name()
		tmp.Close()
		defer os.Remove(tmpPath)
		sortSpan := tr.StartSpan("sort")
		if err := relation.ExternalSort(path, tmpPath, 0); err != nil {
			return nil, err
		}
		sortSpan.End()
		sorted, err := relation.Open(tmpPath, relation.ScanOptions{})
		if err != nil {
			return nil, err
		}
		defer sorted.Close()
		plan.SortFirst = false
		return streamEvaluators(q, plan, sorted, tr)
	}
	if plan.Tuma {
		return streamTuma(q, plan, sc, tr)
	}
	return streamEvaluators(q, plan, sc, tr)
}

// scanAll materializes the scanner into a relation named for the query.
func scanAll(sc *relation.Scanner, name string) (*relation.Relation, error) {
	rel := relation.New(name)
	rel.Tuples = make([]tuple.Tuple, 0, sc.Count())
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rel, nil
		}
		rel.Append(t)
	}
}

// accepts reports whether the tuple passes the query's window and WHERE
// conditions.
func (q *Query) accepts(t tuple.Tuple) bool {
	if q.Window != nil && !t.Valid.Overlaps(*q.Window) {
		return false
	}
	for _, c := range q.Where {
		if !c.matches(t) {
			return false
		}
	}
	return true
}

// streamEvaluators runs one evaluator per attribute group and select-list
// aggregate, feeding tuples as they come off the scanner.
func streamEvaluators(q *Query, plan Plan, sc *relation.Scanner, tr *obs.QueryTrace) (*QueryResult, error) {
	evs := map[string][]core.Evaluator{}
	newEvs := func() ([]core.Evaluator, error) {
		out := make([]core.Evaluator, len(q.Aggs))
		for i, a := range q.Aggs {
			ev, err := core.NewObserved(plan.Spec, aggregate.For(a.Kind), tr.Sink())
			if err != nil {
				return nil, err
			}
			out[i] = ev
		}
		return out, nil
	}

	// Tuples are buffered per group into pages of core.BatchPage and fed
	// through the evaluators' batch-ingestion path, amortizing the per-tuple
	// interface and sink costs over each page.
	pages := map[string][]tuple.Tuple{}
	flush := func(key string) error {
		page := pages[key]
		if len(page) == 0 {
			return nil
		}
		for _, ev := range evs[key] {
			if err := ev.AddBatch(page); err != nil {
				return fmt.Errorf("query: streaming %s: %w", plan.Spec.Algorithm, err)
			}
		}
		pages[key] = page[:0]
		return nil
	}

	execSpan := tr.StartSpan("execute")
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !q.accepts(t) {
			continue
		}
		key := ""
		if q.GroupAttr != nil {
			key = t.Name
		}
		if _, exists := evs[key]; !exists {
			group, err := newEvs()
			if err != nil {
				return nil, err
			}
			evs[key] = group
		}
		pages[key] = append(pages[key], t)
		if len(pages[key]) >= core.BatchPage {
			if err := flush(key); err != nil {
				return nil, err
			}
		}
	}
	for key := range evs {
		if err := flush(key); err != nil {
			return nil, err
		}
	}
	if q.GroupAttr == nil && len(evs) == 0 {
		// An empty (or fully filtered) ungrouped stream still yields the
		// single empty constant interval.
		group, err := newEvs()
		if err != nil {
			return nil, err
		}
		evs[""] = group
	}
	execSpan.End()

	finishSpan := tr.StartSpan("finish")
	keys := make([]string, 0, len(evs))
	for k := range evs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	qr := &QueryResult{Query: q, Plan: plan}
	for _, k := range keys {
		gr := GroupResult{Key: k}
		for _, ev := range evs[k] {
			// A sweep evaluator does its sorting and scanning in Finish;
			// its spans belong to the finish stage.
			core.SetTraceContext(ev, finishSpan.Context())
			res, err := ev.Finish()
			if err != nil {
				return nil, err
			}
			if q.Window != nil {
				res.Clip(*q.Window)
			}
			gr.Results = append(gr.Results, res)
			gr.AllStats = append(gr.AllStats, ev.Stats())
			traceStats(tr, ev.Stats())
		}
		gr.Result = gr.Results[0]
		gr.Stats = gr.AllStats[0]
		qr.Groups = append(qr.Groups, gr)
	}
	finishSpan.End()
	tr.SetGroups(len(qr.Groups))
	return qr, nil
}

// filteredSource adapts the scanner to a TupleSource applying the query's
// filters, so Tuma's two passes are two genuine scans of the file.
type filteredSource struct {
	q  *Query
	sc *relation.Scanner
}

func (s *filteredSource) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := s.sc.Next()
		if err != nil || !ok {
			return tuple.Tuple{}, false, err
		}
		if s.q.accepts(t) {
			return t, true, nil
		}
	}
}

func (s *filteredSource) Reset() error { return s.sc.Reset() }

func streamTuma(q *Query, plan Plan, sc *relation.Scanner, tr *obs.QueryTrace) (*QueryResult, error) {
	execSpan := tr.StartSpan("execute")
	res, err := core.Tuma(&filteredSource{q: q, sc: sc}, aggregate.For(q.Aggs[0].Kind))
	execSpan.End()
	if err != nil {
		return nil, err
	}
	if q.Window != nil {
		res.Clip(*q.Window)
	}
	stats := core.Stats{Tuples: 2 * sc.Count()}
	sinkTuples(tr, "tuma-two-pass", stats.Tuples)
	traceStats(tr, stats)
	tr.SetGroups(1)
	return &QueryResult{
		Query: q,
		Plan:  plan,
		Groups: []GroupResult{{
			Result: res, Stats: stats,
			Results: []*core.Result{res}, AllStats: []core.Stats{stats},
		}},
	}, nil
}

// RunFile parses and executes a query string against a relation file.
func RunFile(sql, path string, info *RelationInfo, sopts relation.ScanOptions) (*QueryResult, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return ExecuteFile(q, path, info, sopts)
}
