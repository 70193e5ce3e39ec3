// Partial-state externalization for the interval index (DESIGN.md S37).
//
// The paper's §3 decomposability means a range-restricted aggregate is a
// merge of precomputed partials. IndexPartial is that partial in portable
// form: the (count, sum) counters that reconstitute COUNT/SUM/AVG under
// aggregate.FromCounters plus the wedge extrema that reconstitute MIN/MAX —
// one partial serves all five aggregate kinds, so a single index answers
// every select list.
package core

import "tempagg/internal/aggregate"

// IndexPartial is one interval-index node's decomposable partial state
// over the tuples assigned to that node: how many there are, their value
// sum, and their value extrema. The zero IndexPartial is the merge
// identity (no tuples).
type IndexPartial struct {
	// Count is the number of tuples absorbed; 0 means the empty partial
	// and makes the other fields meaningless.
	Count int64
	// Sum is the absorbed values' sum.
	Sum int64
	// Min and Max are the absorbed values' extrema.
	Min int64
	Max int64
}

// add absorbs one tuple's value.
func (p *IndexPartial) add(v int64) {
	if p.Count == 0 {
		*p = IndexPartial{Count: 1, Sum: v, Min: v, Max: v}
		return
	}
	p.Count++
	p.Sum += v
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
}

// MergePartials combines two partials over disjoint tuple populations. It
// is commutative and associative with the zero IndexPartial as identity —
// the same algebra aggregate.Func.Merge obeys, carried for all five kinds
// at once.
func MergePartials(a, b IndexPartial) IndexPartial {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	return IndexPartial{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   min(a.Min, b.Min),
		Max:   max(a.Max, b.Max),
	}
}

// State reconstitutes the aggregate.State this partial denotes under f:
// the (count, sum) counters with the extremum matching f's kind. The
// result is indistinguishable from absorbing the partial's tuples into a
// fresh state with f.Add.
func (p IndexPartial) State(f aggregate.Func) aggregate.State {
	var ext int64
	switch f.Kind() {
	case aggregate.Min:
		ext = p.Min
	case aggregate.Max:
		ext = p.Max
	}
	return f.FromCounters(p.Count, p.Sum, ext)
}
