package core

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// listNode is one constant interval in the linked-list algorithm. Unlike the
// tree nodes, a list node carries the *complete* aggregate state for its
// interval, not a partial contribution.
type listNode struct {
	iv    interval.Interval
	state aggregate.State
	next  *listNode
}

// List implements the paper's naive linked-list algorithm (§4.2): a
// temporary relation — here an ordered singly linked list — of constant
// intervals and their aggregate values, incrementally split and updated for
// each tuple. Every Add walks the list from the head, which is what makes
// the algorithm simple and slow; the paper measured it ~300× slower than the
// aggregation tree at 64K tuples, while noting it is adequate when the
// result has few constant intervals.
type List struct {
	noCopy noCopy

	f     aggregate.Func
	ar    arena[listNode]
	head  *listNode
	sink  obs.Sink
	stats statsCell
}

var _ Evaluator = (*List)(nil)

// NewLinkedList returns a linked-list evaluator for the aggregate f. The
// list starts as the single empty constant interval [0, ∞] (Figure 2.a).
func NewLinkedList(f aggregate.Func) *List {
	l := &List{f: f, ar: newArena[listNode](listSlabPool)}
	l.head = l.ar.alloc()
	l.head.iv = interval.Universe()
	l.stats.init(1)
	return l
}

func (l *List) setSink(s obs.Sink) { l.sink = s }

// Add absorbs one tuple: the first and last overlapped constant intervals
// are split at the tuple's start and end timestamps, then the tuple's value
// is added to every overlapped interval's state.
func (l *List) Add(t tuple.Tuple) error {
	if err := t.Valid.Validate(); err != nil {
		return err
	}
	s, e, v := t.Valid.Start, t.Valid.End, t.Value

	// Walk to the first node overlapping the tuple (always from the head —
	// the naive algorithm keeps no positional state).
	n := l.head
	for n.iv.End < s {
		n = n.next
	}
	// Split the first overlapped node if the tuple starts inside it.
	if n.iv.Start < s {
		l.split(n, s-1)
		n = n.next
	}
	// Update every fully overlapped node; split the last one if the tuple
	// ends inside it.
	for n != nil && n.iv.Start <= e {
		if n.iv.End > e {
			l.split(n, e)
		}
		n.state = l.f.Add(n.state, v)
		n = n.next
	}
	l.stats.addTuple()
	return nil
}

// AddBatch absorbs one page of tuples through Add.
func (l *List) AddBatch(ts []tuple.Tuple) error {
	for i := range ts {
		if err := l.Add(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// split divides n into [n.Start, at] and [at+1, n.End]; both halves keep n's
// state (the tuples counted so far overlapped the whole of n).
func (l *List) split(n *listNode, at interval.Time) {
	tail := l.ar.alloc()
	tail.iv = interval.MustNew(at+1, n.iv.End)
	tail.state = n.state
	tail.next = n.next
	n.iv.End = at
	n.next = tail
	l.stats.grow(1)
}

// Finish emits the constant intervals in time order, returns the arena's
// slabs to the shared pool, and publishes the run's counters.
func (l *List) Finish() (*Result, error) {
	// Every list node is one constant interval, so the live count is exact.
	res := &Result{Func: l.f, Rows: make([]Row, 0, int(l.stats.liveNodes.Load()))}
	for n := l.head; n != nil; n = n.next {
		res.Rows = append(res.Rows, Row{Interval: n.iv, State: n.state})
	}
	l.head = nil
	c := l.stats.counters()
	c.ArenaSlabs, c.ArenaReused = l.ar.release()
	Publish(l.sink, LinkedList.String(), c)
	return res, nil
}

// Stats reports the evaluator's counters.
func (l *List) Stats() Stats { return l.stats.snapshot() }
