// Fixture for the finishonce analyzer (default mode): Add after Finish and
// double Finish are flagged; Stats after Finish is permitted by the
// documented contract; reassignment resets the tracking. The live
// evaluator carries the same contract with Close as its terminal call,
// with deferred Close exempt.
package fixture

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

func reuseAfterFinish(ev core.Evaluator, t tuple.Tuple) error {
	if err := ev.Add(t); err != nil { // ok: Add before Finish
		return err
	}
	if _, err := ev.Finish(); err != nil {
		return err
	}
	return ev.Add(t) // want `Add called on ev after Finish`
}

func doubleFinish(ev core.Evaluator) {
	_, _ = ev.Finish()
	_, _ = ev.Finish() // want `Finish called twice on ev`
}

func batchAfterFinish(ev core.Evaluator, ts []tuple.Tuple) error {
	if err := ev.AddBatch(ts); err != nil { // ok: AddBatch before Finish
		return err
	}
	if _, err := ev.Finish(); err != nil {
		return err
	}
	return ev.AddBatch(ts) // want `AddBatch called on ev after Finish`
}

func statsAfterFinish(ev core.Evaluator) core.Stats {
	_, _ = ev.Finish()
	return ev.Stats() // ok by default: the contract allows Stats "at any point"
}

func concreteEvaluator(f aggregate.Func, t tuple.Tuple) error {
	kt, err := core.NewKOrderedTree(f, 1)
	if err != nil {
		return err
	}
	if _, err := kt.Finish(); err != nil {
		return err
	}
	return kt.Add(t) // want `Add called on kt after Finish`
}

func sweepEvaluator(f aggregate.Func, t tuple.Tuple) error {
	sw := core.NewSweep(f)
	if err := sw.Add(t); err != nil { // ok: Add before Finish
		return err
	}
	if _, err := sw.Finish(); err != nil {
		return err
	}
	_ = sw.Stats()   // ok: Stats is allowed after Finish
	return sw.Add(t) // want `Add called on sw after Finish`
}

func reassigned(f aggregate.Func, t tuple.Tuple) error {
	ev := core.Evaluator(core.NewLinkedList(f))
	if _, err := ev.Finish(); err != nil {
		return err
	}
	ev = core.NewLinkedList(f) // a fresh evaluator: tracking resets
	return ev.Add(t)           // ok: this is the new value
}

func fieldReceivers(t tuple.Tuple) {
	var h struct{ ev core.Evaluator }
	h.ev = core.NewLinkedList(aggregate.For(aggregate.Count))
	_, _ = h.ev.Finish()
	_ = h.ev.Add(t) // want `Add called on h\.ev after Finish`
}

func liveReuseAfterClose(ev *core.LiveEvaluator, t tuple.Tuple) error {
	if err := ev.Add(t); err != nil { // ok: Add before Close
		return err
	}
	if err := ev.Close(); err != nil {
		return err
	}
	return ev.Add(t) // want `Add called on ev after Close`
}

func liveDoubleClose(ev *core.LiveEvaluator) {
	_ = ev.Close()
	_ = ev.Close() // want `Close called twice on ev`
}

func liveSnapshotAfterClose(ev *core.LiveEvaluator) (*core.LiveSnapshot, error) {
	_ = ev.Close()
	return ev.Snapshot() // want `Snapshot called on ev after Close`
}

func liveBatchAfterClose(ev *core.LiveEvaluator, ts []tuple.Tuple) error {
	_ = ev.Close()
	return ev.AddBatch(ts) // want `AddBatch called on ev after Close`
}

func liveStatsAfterClose(ev *core.LiveEvaluator) core.Stats {
	_ = ev.Close()
	return ev.Stats() // ok by default: reading the final PeakNodes is the reporting pattern
}

func liveDeferredClose(t tuple.Tuple) error {
	ev := core.NewLive(core.LiveOptions{})
	defer ev.Close() // ok: a deferred Close runs at exit, after every use below
	return ev.Add(t)
}

func liveReassigned(t tuple.Tuple) error {
	ev := core.NewLive(core.LiveOptions{})
	_ = ev.Close()
	ev = core.NewLive(core.LiveOptions{}) // a fresh evaluator: tracking resets
	return ev.Add(t)                      // ok: this is the new value
}

func indexRangeAfterClose(idx *core.IntervalIndex, f aggregate.Func, w interval.Interval) (*core.Result, error) {
	if _, err := idx.Range(f, w); err != nil { // ok: lookup before Close
		return nil, err
	}
	_ = idx.Close()
	return idx.Range(f, w) // want `Range called on idx after Close`
}

func indexDoubleClose(idx *core.IntervalIndex) {
	_ = idx.Close()
	_ = idx.Close() // want `Close called twice on idx`
}

func indexAtAfterClose(idx *core.IntervalIndex, f aggregate.Func) (*core.Result, error) {
	_ = idx.Close()
	return idx.At(f, 7) // want `At called on idx after Close`
}

func indexDeferredClose(ts []tuple.Tuple, f aggregate.Func) (*core.Result, error) {
	idx, err := core.NewIntervalIndex(ts)
	if err != nil {
		return nil, err
	}
	defer idx.Close() // ok: a deferred Close runs at exit, after every use below
	return idx.Result(f)
}

func cacheGetAfterClose(rc *core.ResultCache, k core.CacheKey) (*core.Result, bool) {
	if r, ok := rc.Get(k); ok { // ok: Get before Close
		return r, true
	}
	_ = rc.Close()
	return rc.Get(k) // want `Get called on rc after Close`
}

func cachePutAfterClose(rc *core.ResultCache, k core.CacheKey, r *core.Result) int {
	_ = rc.Close()
	return rc.Put(k, r) // want `Put called on rc after Close`
}

func cacheDoubleClose(rc *core.ResultCache) {
	_ = rc.Close()
	_ = rc.Close() // want `Close called twice on rc`
}

func cacheStatsAfterClose(rc *core.ResultCache) core.CacheStats {
	_ = rc.Close()
	return rc.Stats() // ok by default: reading the final counters is the reporting pattern
}

func cacheReassigned(k core.CacheKey) (*core.Result, bool) {
	rc := core.NewResultCache(4)
	_ = rc.Close()
	rc = core.NewResultCache(4) // a fresh cache: tracking resets
	defer rc.Close()
	return rc.Get(k) // ok: this is the new value
}

func separateFlows(ev core.Evaluator, t tuple.Tuple) {
	done := make(chan struct{})
	go func() {
		// A nested function body is its own flow: the flow-insensitive
		// check cannot order it against the outer Finish.
		_ = ev.Add(t) // ok
		close(done)
	}()
	<-done
	_, _ = ev.Finish()
}
