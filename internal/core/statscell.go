package core

import (
	"sync/atomic"

	"tempagg/internal/aggregate"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// statsCell is the evaluators' internal form of Stats: every counter is an
// atomic so Stats can be snapshotted from another goroutine while an
// evaluation is in flight — the /metrics scrape path — without torn reads.
// Mutation stays single-writer (the evaluator's own goroutine); the atomics
// buy safe concurrent *readers*, not concurrent Add.
type statsCell struct {
	tuples    atomic.Int64
	liveNodes atomic.Int64
	peakNodes atomic.Int64
	collected atomic.Int64
}

// init seeds the live/peak counters with the structure's initial node count.
func (c *statsCell) init(nodes int) {
	c.liveNodes.Store(int64(nodes))
	c.peakNodes.Store(int64(nodes))
}

// addTuple counts one absorbed tuple.
func (c *statsCell) addTuple() { c.tuples.Add(1) }

// grow adds n live nodes and raises the peak high-water mark.
func (c *statsCell) grow(n int) {
	if n == 0 {
		return
	}
	live := c.liveNodes.Add(int64(n))
	for {
		peak := c.peakNodes.Load()
		if live <= peak || c.peakNodes.CompareAndSwap(peak, live) {
			return
		}
	}
}

// reclaim moves n nodes from live to collected (garbage collection).
func (c *statsCell) reclaim(n int) {
	c.liveNodes.Add(int64(-n))
	c.collected.Add(int64(n))
}

// snapshot assembles a Stats value from atomic loads. The counters are not
// read as one group, so a snapshot taken mid-Add may mix values from either
// side of it; grow raises live before its peak CAS, so the peak is clamped
// to the live count read here — a value the evaluation did reach.
func (c *statsCell) snapshot() Stats {
	live := c.liveNodes.Load()
	peak := max(c.peakNodes.Load(), live)
	return Stats{
		Tuples:    int(c.tuples.Load()),
		LiveNodes: int(live),
		PeakNodes: int(peak),
		Collected: int(c.collected.Load()),
	}
}

// sinkSetter is implemented by evaluators that can publish their counters
// to an observability sink; NewObserved uses it after construction.
type sinkSetter interface {
	setSink(s obs.Sink)
}

// traceSetter is implemented by evaluators that can attach a span-
// propagation context and record child spans under it (today the sweep
// family; tree evaluators run as one opaque span at the query layer).
type traceSetter interface {
	setTrace(ctx obs.TraceContext)
}

// SetTraceContext attaches a span-propagation context to ev when the
// evaluator supports one; a zero context or an unsupporting evaluator is a
// no-op. It is the exported hook the query executor uses to hang
// per-worker sweep spans under its execute span.
func SetTraceContext(ev Evaluator, ctx obs.TraceContext) {
	if ts, ok := ev.(traceSetter); ok {
		ts.setTrace(ctx)
	}
}

// NewObserved is New with an observability sink attached: the evaluator
// publishes tuple, node-allocation, garbage-collection, and peak-memory
// events to s as it runs (the counters behind the paper's §6 cost model).
// A nil s is equivalent to New.
func NewObserved(spec Spec, f aggregate.Func, s obs.Sink) (Evaluator, error) {
	ev, err := New(spec, f)
	if err != nil || s == nil {
		return ev, err
	}
	if ss, ok := ev.(sinkSetter); ok {
		ss.setSink(s)
	}
	return ev, nil
}

// RunObserved is Run with an observability sink attached; see NewObserved.
// Tuples are fed through the batch-ingestion path in pages of BatchPage.
func RunObserved(spec Spec, f aggregate.Func, tuples []tuple.Tuple, s obs.Sink) (*Result, Stats, error) {
	return RunTraced(spec, f, tuples, s, obs.TraceContext{})
}

// RunTraced is RunObserved with a span-propagation context attached: an
// evaluator that supports tracing (the sweep family) records its sort,
// per-worker scan, and emit stages as child spans of ctx. A zero ctx is
// exactly RunObserved.
func RunTraced(spec Spec, f aggregate.Func, tuples []tuple.Tuple, s obs.Sink, ctx obs.TraceContext) (*Result, Stats, error) {
	ev, err := NewObserved(spec, f, s)
	if err != nil {
		return nil, Stats{}, err
	}
	SetTraceContext(ev, ctx)
	for lo := 0; lo < len(tuples); lo += BatchPage {
		hi := lo + BatchPage
		if hi > len(tuples) {
			hi = len(tuples)
		}
		if err := ev.AddBatch(tuples[lo:hi]); err != nil {
			return nil, ev.Stats(), err
		}
	}
	res, err := ev.Finish()
	return res, ev.Stats(), err
}
