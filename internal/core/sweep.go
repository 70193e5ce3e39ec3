package core

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// Sweep computes the temporal aggregate by delta summation over a columnar
// event layout (DESIGN.md S33) instead of a tree of constant intervals. Each
// tuple [s, e] with value v becomes two events: an arrival at s and a
// departure at e+1, kept in struct-of-arrays buffers (one timestamp column
// and one value column per endpoint, grown through the shared column pool in
// arena.go). Finish radix-sorts each event column — skipped outright when
// ingestion observed it already sorted, and handed to the standard library's
// pattern-defeating quicksort below radixMinSize — then merges the two
// sorted endpoint streams in one branch-light linear scan, maintaining a
// running (count, sum) pair from which every constant interval's state is
// reconstituted via aggregate.FromCounters.
//
// COUNT, SUM, and AVG are exactly the aggregates a signed (count, sum) pair
// maintains under retraction (aggregate.Kind.Decomposable), so for them the
// sweep is complete: O(n) ingestion, O(n) sort (a handful of radix passes),
// O(n) emission, no pointer chasing, and bit-for-bit the Reference
// semantics including empty groups (count reaching zero reconstitutes the
// null state).
//
// MIN and MAX lose information on retraction, so they sweep with a wedge:
// tuples are buffered columnar, sorted by start, and scanned with a binary
// heap ordered by value that carries each entry's departure time for lazy
// expiry. The heap top — after shedding entries whose interval has passed —
// is the running extremum. A pathological workload (many long-lived tuples
// stacked over the same instants) can grow the wedge without bound, so when
// it exceeds WedgeBound the run abandons the sweep and rebuilds through
// NewAggregationTreeRange from the buffered columns; the fallback is counted
// in the run's counters record (tempagg_sweep_fallbacks_total).
//
// Space accounting stays in the paper's §6.2 currency of 16-byte nodes: an
// event is a (timestamp, value) pair — exactly one node — and a buffered
// MIN/MAX tuple is charged two nodes (three column words plus its share of
// the departure-event copy built at Finish).
type Sweep struct {
	noCopy noCopy

	f            aggregate.Func
	span         interval.Interval
	decomposable bool
	opts         SweepOptions
	ar           colArena

	// Event columns (decomposable path): arrivals at Start, departures at
	// End+1. Departures at or beyond span.End+1 are never materialized —
	// the tuple stays live to the end of the span, and for spans reaching
	// Forever the +1 would overflow.
	sTimes, sVals []int64
	eTimes, eVals []int64
	sSorted       bool
	sLast         int64

	// Tuple columns (MIN/MAX path), aligned by index.
	starts, ends, vals []int64

	// WedgeBound caps the MIN/MAX wedge heap (live entries plus not-yet-shed
	// expired ones). Exceeding it triggers the aggregation-tree fallback.
	// Set before Finish; zero means DefaultWedgeBound.
	WedgeBound int

	events      int
	radixPasses int
	fallbacks   int

	sink  obs.Sink
	stats statsCell
}

var _ Evaluator = (*Sweep)(nil)

// DefaultWedgeBound is the MIN/MAX wedge size above which Finish abandons
// the sweep for the aggregation tree. 1<<16 entries is one megabyte of
// wedge — past the point where heap sifting beats the tree's pointer walk.
const DefaultWedgeBound = 1 << 16

// NewSweep returns a columnar event-sweep evaluator for f over [0, ∞].
func NewSweep(f aggregate.Func) *Sweep {
	return NewSweepRange(f, interval.Universe())
}

// NewSweepRange returns a sweep covering only the given range; tuples are
// clipped to it on insertion, mirroring NewAggregationTreeRange so the
// partitioned evaluator can run sweeps per shard.
func NewSweepRange(f aggregate.Func, span interval.Interval) *Sweep {
	return &Sweep{
		f:            f,
		span:         span,
		decomposable: f.Kind().Decomposable(),
		sSorted:      true,
	}
}

// SweepOptions parameterizes a sweep evaluation.
type SweepOptions struct {
	// Trace is the span-propagation context for the evaluation: when
	// active, Finish records its radix-sort and scan stages as child spans,
	// each with its own event-count snapshot. The zero value disables span
	// recording (one pointer compare per stage, never per tuple).
	Trace obs.TraceContext
}

// NewSweepOptions is NewSweep with explicit options.
func NewSweepOptions(f aggregate.Func, opts SweepOptions) *Sweep {
	return NewSweepRangeOptions(f, interval.Universe(), opts)
}

// NewSweepRangeOptions is NewSweepRange with explicit options.
func NewSweepRangeOptions(f aggregate.Func, span interval.Interval, opts SweepOptions) *Sweep {
	s := NewSweepRange(f, span)
	s.opts = opts
	return s
}

func (s *Sweep) setSink(snk obs.Sink) { s.sink = snk }

// setTrace attaches the span-propagation context (traceSetter); Finish then
// records its sort/scan/emit stages as child spans.
func (s *Sweep) setTrace(ctx obs.TraceContext) { s.opts.Trace = ctx }

// add ingests one clipped tuple and returns the nodes charged.
func (s *Sweep) add(iv interval.Interval, v int64) int {
	if s.decomposable {
		if iv.Start < s.sLast {
			s.sSorted = false
		}
		s.sLast = iv.Start
		s.sTimes = s.ar.push(s.sTimes, iv.Start)
		s.sVals = s.ar.push(s.sVals, v)
		if iv.End >= s.span.End {
			return 1
		}
		s.eTimes = s.ar.push(s.eTimes, iv.End+1)
		s.eVals = s.ar.push(s.eVals, v)
		return 2
	}
	s.starts = s.ar.push(s.starts, iv.Start)
	s.ends = s.ar.push(s.ends, iv.End)
	s.vals = s.ar.push(s.vals, v)
	return 2
}

// Add absorbs one tuple. A tuple outside the sweep's range is ignored; one
// straddling it is clipped, exactly as the tree evaluators do.
func (s *Sweep) Add(tu tuple.Tuple) error {
	if err := tu.Valid.Validate(); err != nil {
		return err
	}
	iv, ok := tu.Valid.Intersect(s.span)
	if !ok {
		return nil
	}
	grown := s.add(iv, tu.Value)
	s.stats.grow(grown)
	s.stats.addTuple()
	return nil
}

// AddBatch absorbs one page of tuples through Add.
func (s *Sweep) AddBatch(ts []tuple.Tuple) error {
	for i := range ts {
		if err := s.Add(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Finish sorts the event columns, runs the merge scan, recycles every
// column, and publishes the run's counters. The evaluator must not be
// reused afterwards.
func (s *Sweep) Finish() (*Result, error) {
	var res *Result
	var err error
	if s.decomposable {
		res = s.finishDecomposable()
	} else {
		res, err = s.finishWedge()
	}
	for _, col := range [][]int64{
		s.sTimes, s.sVals, s.eTimes, s.eVals, s.starts, s.ends, s.vals,
	} {
		s.ar.release(col)
	}
	s.sTimes, s.sVals, s.eTimes, s.eVals = nil, nil, nil, nil
	s.starts, s.ends, s.vals = nil, nil, nil
	c := s.stats.counters()
	c.ArenaSlabs, c.ArenaReused = s.ar.counters()
	c.SweepEvents, c.SweepRadixPasses, c.SweepFallbacks = s.events, s.radixPasses, s.fallbacks
	Publish(s.sink, SweepEval.String(), c)
	return res, err
}

// finishDecomposable sorts both endpoint columns and merges them with a
// running (count, sum) pair — the COUNT/SUM/AVG path.
func (s *Sweep) finishDecomposable() *Result {
	s.events = len(s.sTimes) + len(s.eTimes)
	if !s.sSorted {
		sp := s.opts.Trace.StartChild("radix-sort")
		sp.SetAttr("column", "arrivals")
		s.radixPasses += radixSortInt64(&s.ar, s.sTimes, s.sVals)
		sp.End()
	}
	// Departures are e+1 in arrival order; even sorted input rarely keeps
	// them sorted, so check in O(n) before paying for the sort.
	if !sortedInt64(s.eTimes) {
		sp := s.opts.Trace.StartChild("radix-sort")
		sp.SetAttr("column", "departures")
		s.radixPasses += radixSortInt64(&s.ar, s.eTimes, s.eVals)
		sp.End()
	}
	scanSp := s.opts.Trace.StartChild("scan")
	scanSp.SetAttr("mode", "serial")
	scanSp.AddCounters(0, s.events, 0, 0)
	defer scanSp.End()

	lo, hi := s.span.Start, s.span.End
	res := &Result{Func: s.f, Rows: make([]Row, 0, len(s.sTimes)+len(s.eTimes)+1)}
	var count, sum int64
	i, j := 0, 0
	// Arrivals at the span's first instant precede the first row; clipped
	// departures are at least lo+1, so none need the same treatment.
	for i < len(s.sTimes) && s.sTimes[i] == lo {
		count++
		sum += s.sVals[i]
		i++
	}
	cur := lo
	for {
		var t int64
		switch {
		case i < len(s.sTimes) && j < len(s.eTimes):
			t = min(s.sTimes[i], s.eTimes[j])
		case i < len(s.sTimes):
			t = s.sTimes[i]
		case j < len(s.eTimes):
			t = s.eTimes[j]
		default:
			t = hi // no boundaries left: fall through to the closing row
		}
		if t > hi || (i >= len(s.sTimes) && j >= len(s.eTimes)) {
			break
		}
		res.Rows = append(res.Rows, Row{
			Interval: interval.MustNew(cur, t-1),
			State:    s.f.FromCounters(count, sum, 0),
		})
		for i < len(s.sTimes) && s.sTimes[i] == t {
			count++
			sum += s.sVals[i]
			i++
		}
		for j < len(s.eTimes) && s.eTimes[j] == t {
			count--
			sum -= s.eVals[j]
			j++
		}
		cur = t
	}
	res.Rows = append(res.Rows, Row{
		Interval: interval.MustNew(cur, hi),
		State:    s.f.FromCounters(count, sum, 0),
	})
	return res
}

// finishWedge is the MIN/MAX path: tuples sorted by start, departures
// sorted separately, one merge scan with a value-ordered wedge heap.
func (s *Sweep) finishWedge() (*Result, error) {
	bound := s.WedgeBound
	if bound <= 0 {
		bound = DefaultWedgeBound
	}
	if !sortedInt64(s.starts) {
		sp := s.opts.Trace.StartChild("radix-sort")
		sp.SetAttr("column", "starts")
		s.radixPasses += radixSortInt64(&s.ar, s.starts, s.ends, s.vals)
		sp.End()
	}
	scanSp := s.opts.Trace.StartChild("scan")
	scanSp.SetAttr("mode", "wedge")
	defer func() {
		scanSp.AddCounters(0, s.events, 0, 0)
		scanSp.End()
	}()
	// Departure events (e+1 with the value to retract); tuples reaching the
	// span's end never depart within it.
	hi := s.span.End
	eT, eV := s.ar.acquire(len(s.ends)), s.ar.acquire(len(s.ends))
	for k, e := range s.ends {
		if e < hi {
			eT = append(eT, e+1)
			eV = append(eV, s.vals[k])
		}
	}
	if !sortedInt64(eT) {
		s.radixPasses += radixSortInt64(&s.ar, eT, eV)
	}
	s.events = len(s.starts) + len(eT)
	defer func() {
		s.ar.release(eT)
		s.ar.release(eV)
	}()

	lo := s.span.Start
	res := &Result{Func: s.f, Rows: make([]Row, 0, len(s.starts)*2+1)}
	w := wedge{max: s.f.Kind() == aggregate.Max}
	var count, sum int64
	i, j := 0, 0
	for i < len(s.starts) && s.starts[i] == lo {
		count++
		sum += s.vals[i]
		w.push(s.vals[i], s.ends[i])
		i++
	}
	cur := lo
	for {
		if w.len() > bound {
			return s.fallback()
		}
		var t int64
		switch {
		case i < len(s.starts) && j < len(eT):
			t = min(s.starts[i], eT[j])
		case i < len(s.starts):
			t = s.starts[i]
		case j < len(eT):
			t = eT[j]
		default:
			t = hi
		}
		if t > hi || (i >= len(s.starts) && j >= len(eT)) {
			break
		}
		res.Rows = append(res.Rows, Row{
			Interval: interval.MustNew(cur, t-1),
			State:    s.wedgeState(&w, count, sum, cur),
		})
		for i < len(s.starts) && s.starts[i] == t {
			count++
			sum += s.vals[i]
			w.push(s.vals[i], s.ends[i])
			i++
		}
		for j < len(eT) && eT[j] == t {
			count--
			sum -= eV[j]
			j++
		}
		cur = t
	}
	res.Rows = append(res.Rows, Row{
		Interval: interval.MustNew(cur, hi),
		State:    s.wedgeState(&w, count, sum, cur),
	})
	return res, nil
}

// wedgeState sheds expired wedge entries and reconstitutes the state for a
// constant interval starting at cur. Every tuple live at cur stays live
// through the whole interval (its departure would otherwise be an interior
// boundary), so the post-shed top is the interval's exact extremum.
func (s *Sweep) wedgeState(w *wedge, count, sum, cur int64) aggregate.State {
	if count == 0 {
		// Nothing live: any remaining wedge entries are expired. Dropping
		// them here keeps the wedge's stale population bounded by the gaps
		// in the workload.
		w.reset()
		return s.f.Zero()
	}
	for w.len() > 0 && w.ends[0] < cur {
		w.pop()
	}
	return s.f.FromCounters(count, sum, w.vals[0])
}

// fallback rebuilds the result through the aggregation tree from the
// buffered tuple columns, the escape hatch for wedge overflow. The tree
// publishes to the same sink under its own algorithm label.
func (s *Sweep) fallback() (*Result, error) {
	s.fallbacks++
	tr := NewAggregationTreeRange(s.f, s.span)
	tr.setSink(s.sink)
	var page [BatchPage]tuple.Tuple
	for lo := 0; lo < len(s.starts); lo += BatchPage {
		n := min(BatchPage, len(s.starts)-lo)
		for k := 0; k < n; k++ {
			page[k] = tuple.MustNew("", s.vals[lo+k], s.starts[lo+k], s.ends[lo+k])
		}
		if err := tr.AddBatch(page[:n]); err != nil {
			return nil, err
		}
	}
	return tr.Finish()
}

// Stats reports the evaluator's counters.
func (s *Sweep) Stats() Stats { return s.stats.snapshot() }

// wedge is the MIN/MAX sweep's live set: a binary heap ordered by value
// (min-ordered for MIN, max-ordered for MAX) carrying each entry's
// departure time for lazy expiry. Entries are only ever shed from the top,
// so an expired entry buried under the extremum lingers until it surfaces —
// harmless for correctness (a live entry always outranks it or it would be
// the top) and the reason WedgeBound caps the heap's physical size.
type wedge struct {
	vals, ends []int64
	max        bool
}

func (w *wedge) len() int { return len(w.vals) }

func (w *wedge) reset() {
	w.vals, w.ends = w.vals[:0], w.ends[:0]
}

// before reports whether entry i outranks entry j in heap order.
func (w *wedge) before(i, j int) bool {
	if w.max {
		return w.vals[i] > w.vals[j]
	}
	return w.vals[i] < w.vals[j]
}

func (w *wedge) swap(i, j int) {
	w.vals[i], w.vals[j] = w.vals[j], w.vals[i]
	w.ends[i], w.ends[j] = w.ends[j], w.ends[i]
}

func (w *wedge) push(v, end int64) {
	w.vals = append(w.vals, v)
	w.ends = append(w.ends, end)
	i := len(w.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.before(i, parent) {
			break
		}
		w.swap(i, parent)
		i = parent
	}
}

func (w *wedge) pop() {
	last := len(w.vals) - 1
	w.swap(0, last)
	w.vals, w.ends = w.vals[:last], w.ends[:last]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= last {
			return
		}
		if kid+1 < last && w.before(kid+1, kid) {
			kid++
		}
		if !w.before(kid, i) {
			return
		}
		w.swap(i, kid)
		i = kid
	}
}
