// IntervalIndex: a materialized partial-state index answering
// range-restricted temporal aggregates without rescanning the relation
// (DESIGN.md S37).
//
// The index is a static segment tree over the relation's elementary
// intervals — the maximal runs between adjacent event timestamps (tuple
// starts and ends+1), the same boundaries the columnar sweep emits rows at.
// Each tuple [s, e] is assigned to the O(log n) canonical nodes whose leaf
// ranges tile [s, e], and every node holds one IndexPartial (partial.go)
// over the tuples assigned to it. A tuple covering a leaf's elementary
// interval therefore contributes at exactly one node on the leaf's root
// path — the aggregation-tree invariant of §5.1, materialized once instead
// of rebuilt per query — so the aggregate state over any elementary
// interval is the merge of the ≤ log n partials on its root path, for all
// five aggregate kinds at once (MIN/MAX need no retraction here: node
// assignment never removes a tuple).
//
// A point lookup (AT t) merges one root path: O(log n). A range lookup
// (VALID OVERLAPS a b) emits the window's k elementary intervals by
// depth-first descent with an accumulated root-path partial: O(k + log n)
// node visits, independent of relation size — against the sweep's
// O(n log n) re-sort and full O(n) scan per query.
package core

import (
	"errors"
	"sort"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// IndexLookupAlg is the algorithm label index lookups publish under —
// the same name the planner gives index-served plans.
const IndexLookupAlg = "index-lookup"

// ErrIndexClosed is returned by lookups on a closed IntervalIndex.
var ErrIndexClosed = errors.New("core: interval index is closed")

// IntervalIndex is a static segment tree of partial states over one
// immutable tuple set. It is built once by NewIntervalIndex and read-only
// afterwards: concurrent lookups are safe with no locking. After Close the
// index must not be used (tempagglint's finishonce analyzer enforces this
// like the evaluators' Finish contract).
type IntervalIndex struct {
	noCopy noCopy

	// bounds holds the elementary intervals' left endpoints, ascending;
	// bounds[0] is the time origin. Leaf i covers [bounds[i], bounds[i+1]-1],
	// the last leaf [bounds[m-1], ∞].
	bounds []interval.Time
	// nodes is the 1-rooted heap-shaped tree over pow2 padded leaves; node
	// i's children are 2i and 2i+1. Padding leaves past len(bounds) stay
	// empty and are never descended into.
	nodes  []IndexPartial
	pow2   int
	tuples int
	closed bool

	sink obs.Sink
}

// NewIntervalIndex builds the index over ts. Construction validates every
// tuple, sorts the O(n) endpoint boundaries, and inserts each tuple at its
// O(log n) canonical nodes: O(n log n) once, amortized over every lookup
// the index serves. The tuple slice is not retained.
func NewIntervalIndex(ts []tuple.Tuple) (*IntervalIndex, error) {
	bounds := make([]interval.Time, 0, 2*len(ts)+1)
	bounds = append(bounds, interval.Origin)
	for i := range ts {
		if err := ts[i].Validate(); err != nil {
			return nil, err
		}
		bounds = append(bounds, ts[i].Valid.Start)
		if ts[i].Valid.End < interval.Forever {
			bounds = append(bounds, ts[i].Valid.End+1)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	dedup := bounds[:1]
	for _, b := range bounds[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	pow2 := 1
	for pow2 < len(dedup) {
		pow2 <<= 1
	}
	x := &IntervalIndex{
		bounds: dedup,
		nodes:  make([]IndexPartial, 2*pow2),
		pow2:   pow2,
		tuples: len(ts),
	}
	for i := range ts {
		lo := x.leafOf(ts[i].Valid.Start)
		hi := x.leafOf(ts[i].Valid.End)
		x.insert(1, 0, pow2-1, lo, hi, ts[i].Value)
	}
	return x, nil
}

// SetSink attaches an observability sink; each lookup then publishes one
// record under the "index-lookup" algorithm label, and the completed build
// is recorded immediately. Safe only before the index is shared across
// goroutines.
func (x *IntervalIndex) SetSink(s obs.Sink) {
	x.sink = s
	Publish(s, IndexLookupAlg, obs.EvalCounters{IndexNodes: len(x.nodes), Tuples: x.tuples})
}

// Len reports the number of tuples indexed.
func (x *IntervalIndex) Len() int { return x.tuples }

// Nodes reports the materialized tree slots, each one IndexPartial.
func (x *IntervalIndex) Nodes() int { return len(x.nodes) }

// Leaves reports the elementary-interval count.
func (x *IntervalIndex) Leaves() int { return len(x.bounds) }

// Bytes reports the resident size of the node array in the paper's §6.2
// currency: one IndexPartial is four words, two 16-byte nodes.
func (x *IntervalIndex) Bytes() int64 { return int64(len(x.nodes)) * 2 * NodeBytes }

// leafOf returns the leaf whose elementary interval contains t: the last
// boundary at or below it.
func (x *IntervalIndex) leafOf(t interval.Time) int {
	return sort.Search(len(x.bounds), func(i int) bool { return x.bounds[i] > t }) - 1
}

// insert adds v to the canonical nodes tiling leaves [lo, hi].
func (x *IntervalIndex) insert(node, nodeLo, nodeHi, lo, hi int, v int64) {
	if hi < nodeLo || nodeHi < lo {
		return
	}
	if lo <= nodeLo && nodeHi <= hi {
		x.nodes[node].add(v)
		return
	}
	mid := (nodeLo + nodeHi) / 2
	x.insert(2*node, nodeLo, mid, lo, hi, v)
	x.insert(2*node+1, mid+1, nodeHi, lo, hi, v)
}

// Range answers the window-restricted aggregate for f: the window's
// constant intervals, clipped to it, each with the exact state over the
// tuples overlapping it — bit-identical to sweeping the relation and
// clipping (Result.Equal against Reference holds by construction). The
// returned result partitions the window and is the caller's to mutate.
func (x *IntervalIndex) Range(f aggregate.Func, window interval.Interval) (*Result, error) {
	if x.closed {
		return nil, ErrIndexClosed
	}
	if err := window.Validate(); err != nil {
		return nil, err
	}
	lo := x.leafOf(window.Start)
	hi := x.leafOf(window.End)
	res := &Result{Func: f, Rows: make([]Row, 0, hi-lo+1)}
	merges := x.walk(f, res, 1, 0, x.pow2-1, lo, hi, IndexPartial{}, window)
	Publish(x.sink, IndexLookupAlg, obs.EvalCounters{IndexLookups: 1, IndexMerges: merges})
	return res, nil
}

// At answers the point lookup for f at instant t: one [t, t] row whose
// state merges the O(log n) partials on t's leaf's root path.
func (x *IntervalIndex) At(f aggregate.Func, t interval.Time) (*Result, error) {
	return x.Range(f, interval.At(t))
}

// Result answers the full [0, ∞] constant-interval result for f.
func (x *IntervalIndex) Result(f aggregate.Func) (*Result, error) {
	return x.Range(f, interval.Universe())
}

// walk emits the rows for leaves [lo, hi] under node, carrying the merge
// of the partials on the path above it. It returns the number of non-empty
// partial merges performed, the lookup's §6 cost.
func (x *IntervalIndex) walk(f aggregate.Func, res *Result, node, nodeLo, nodeHi, lo, hi int, acc IndexPartial, window interval.Interval) int {
	if hi < nodeLo || nodeHi < lo {
		return 0
	}
	merges := 0
	if p := x.nodes[node]; p.Count != 0 {
		acc = MergePartials(acc, p)
		merges = 1
	}
	if nodeLo == nodeHi {
		start := max(x.bounds[nodeLo], window.Start)
		end := window.End
		if nodeLo+1 < len(x.bounds) && x.bounds[nodeLo+1]-1 < end {
			end = x.bounds[nodeLo+1] - 1
		}
		res.Rows = append(res.Rows, Row{
			Interval: interval.MustNew(start, end),
			State:    acc.State(f),
		})
		return merges
	}
	mid := (nodeLo + nodeHi) / 2
	merges += x.walk(f, res, 2*node, nodeLo, mid, lo, hi, acc, window)
	merges += x.walk(f, res, 2*node+1, mid+1, nodeHi, lo, hi, acc, window)
	return merges
}

// Close releases the node and boundary storage; subsequent lookups return
// ErrIndexClosed. The index must not be closed while lookups are in
// flight.
func (x *IntervalIndex) Close() error {
	x.bounds, x.nodes = nil, nil
	x.closed = true
	return nil
}
