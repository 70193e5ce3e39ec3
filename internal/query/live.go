package query

import (
	"fmt"
	"strconv"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
)

// ExecuteLive evaluates a SELECT ... LIVE query against one consistent
// snapshot of a shared live evaluator. Every aggregate of the select list
// reads the same epoch: the point read (AT), the range read (VALID
// OVERLAPS), and the full constant-interval result are all evaluated over
// exactly the tuples admitted when the snapshot was taken, however far
// ingestion has advanced since. The snapshot read is recorded as a
// "live-snapshot-read" span carrying the epoch attributes, so a traced
// live query shows up in /debug/traces and /debug/queries like any batch
// query.
func ExecuteLive(q *Query, snap *core.LiveSnapshot, tr *obs.QueryTrace) (*QueryResult, error) {
	if !q.Live {
		return nil, fmt.Errorf("query: ExecuteLive needs a LIVE query, got %q", q)
	}
	ep := snap.Epoch()
	plan := Plan{Live: true, Reason: fmt.Sprintf("snapshot read at %s", ep)}
	tr.SetPlan(plan.Algorithm(), 0, plan.String())

	span := tr.StartSpan("live-snapshot-read")
	span.SetAttr("epoch_seq", strconv.FormatInt(ep.Seq, 10))
	span.SetAttr("segments", strconv.Itoa(ep.Segments))
	span.SetAttr("tail", strconv.Itoa(ep.Tail))
	defer span.End()

	gr := GroupResult{}
	for _, a := range q.Aggs {
		f := aggregate.For(a.Kind)
		var (
			res *core.Result
			err error
		)
		switch {
		case q.At != nil:
			// The point read keeps the AT result shape of the batch path:
			// one row covering exactly [at, at]. Range-restricted live reads
			// go through the sealed segments' memoized interval indexes —
			// only the mutable tail is swept per epoch (index-live-tail,
			// S37).
			res, err = snap.RangeIndexed(f, interval.At(*q.At))
			span.SetAttr("range_path", "index-live-tail")
		case q.Window != nil:
			res, err = snap.RangeIndexed(f, *q.Window)
			span.SetAttr("range_path", "index-live-tail")
		default:
			res, err = snap.Result(f)
		}
		if err != nil {
			return nil, err
		}
		gr.Results = append(gr.Results, res)
		gr.AllStats = append(gr.AllStats, core.Stats{})
	}
	// The epoch's tuples are read once for the whole select list: charge
	// them to the first slot only, so trace totals reflect work done rather
	// than aggregates served.
	gr.AllStats[0] = core.Stats{Tuples: snap.Len()}
	gr.Result = gr.Results[0]
	gr.Stats = gr.AllStats[0]
	sinkTuples(tr, "live-snapshot", snap.Len())
	traceStats(tr, gr.Stats)
	tr.SetGroups(1)
	return &QueryResult{Query: q, Plan: plan, Groups: []GroupResult{gr}}, nil
}
