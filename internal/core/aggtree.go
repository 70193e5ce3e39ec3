package core

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// treeNode is one node of the aggregation tree, in the paper's space-
// efficient "single timestamp per node" variant (§6.2, 16 bytes): a split
// timestamp, an aggregate contribution, and two child pointers. A node's
// covered range is implicit from the root range and the splits on the path
// to it: the left child covers [lo, split], the right [split+1, hi]. A node
// with no children is a leaf and encodes one constant interval. Internal
// nodes always have exactly two children.
//
// The state at a node is the contribution of the tuples whose intervals
// completely overlapped the node when they were inserted — the paper's
// shortcut that avoids searching below fully covered nodes. The total
// aggregate for a leaf's constant interval is the merge of the states on its
// root path (every overlapping tuple contributes at exactly one such node).
type treeNode struct {
	split       interval.Time
	state       aggregate.State
	left, right *treeNode
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// treeInsert descends the subtree rooted at n (covering [lo, hi]) with the
// tuple interval [s, e] and value v, splitting leaves at the tuple's
// boundary timestamps; split nodes come from the arena. It returns the
// number of nodes created. Precondition: [s, e] overlaps [lo, hi].
func treeInsert(f aggregate.Func, ar *arena[treeNode], n *treeNode, lo, hi, s, e interval.Time, v int64) int {
	grown := 0
	for {
		if s <= lo && hi <= e {
			// The tuple completely overlaps this node: record the
			// contribution here and do not search further (§5.1).
			n.state = f.Add(n.state, v)
			return grown
		}
		if n.isLeaf() {
			// A tuple boundary falls inside this constant interval: split
			// the leaf. The old leaf's state stays at the (now internal)
			// node — it applies to both halves.
			if s > lo {
				n.split = s - 1
			} else {
				n.split = e
			}
			n.left = ar.alloc()
			n.right = ar.alloc()
			grown += 2
			// Fall through: descend into the overlapped half/halves.
		}
		// Internal node: at most one side needs a recursive call; the other
		// is handled iteratively to keep right-spine chains cheap.
		if s <= n.split && e > n.split {
			grown += treeInsert(f, ar, n.left, lo, n.split, s, e, v)
			lo, n = n.split+1, n.right
			continue
		}
		if s <= n.split {
			hi, n = n.split, n.left
		} else {
			lo, n = n.split+1, n.right
		}
	}
}

// emitSubtree walks the subtree rooted at n (covering [lo, hi]) left to
// right, merging each node's contribution into the accumulated state acc,
// and appends one row per leaf. It recurses on left children and iterates on
// right children so the right-spine chains produced by sorted input do not
// deepen the call stack.
func emitSubtree(f aggregate.Func, n *treeNode, lo, hi interval.Time, acc aggregate.State, res *Result) {
	for {
		acc = f.Merge(acc, n.state)
		if n.isLeaf() {
			res.Rows = append(res.Rows, Row{
				Interval: interval.MustNew(lo, hi),
				State:    acc,
			})
			return
		}
		emitSubtree(f, n.left, lo, n.split, acc, res)
		lo, n = n.split+1, n.right
	}
}

// Tree implements the aggregation tree algorithm (§5.1): an *unbalanced*
// binary tree over the constant intervals, built in one scan, followed by a
// depth-first traversal that accumulates aggregate contributions from root
// to leaves and emits one result row per leaf, in time order.
//
// The tree is deliberately not balanced — this is the paper's algorithm, and
// its O(n²) degeneration on sorted input is one of the paper's findings
// (Figure 7). See BalancedTree for the future-work variant that rebalances.
type Tree struct {
	noCopy noCopy

	f     aggregate.Func
	ar    arena[treeNode]
	root  *treeNode
	span  interval.Interval // the root's covered range
	sink  obs.Sink
	stats statsCell
}

var _ Evaluator = (*Tree)(nil)

// NewAggregationTree returns an aggregation-tree evaluator for f. The tree
// starts as a single leaf covering [0, ∞] with the identity state
// (Figure 3.a).
func NewAggregationTree(f aggregate.Func) *Tree {
	return NewAggregationTreeRange(f, interval.Universe())
}

// NewAggregationTreeRange returns an aggregation tree covering only the
// given range; tuples are clipped to it on insertion. This is the building
// block of the partitioned limited-main-memory evaluation (§5.1/§7), where
// separate trees cover separate regions of the time-line.
func NewAggregationTreeRange(f aggregate.Func, span interval.Interval) *Tree {
	t := &Tree{f: f, ar: newArena[treeNode](treeSlabPool), span: span}
	t.root = t.ar.alloc()
	t.stats.init(1)
	return t
}

func (t *Tree) setSink(s obs.Sink) { t.sink = s }

// Add inserts one tuple, splitting the leaves containing its start and end
// timestamps and updating the highest fully covered nodes. A tuple outside
// the tree's range is ignored; one straddling it is clipped.
func (t *Tree) Add(tu tuple.Tuple) error {
	if err := tu.Valid.Validate(); err != nil {
		return err
	}
	iv, ok := tu.Valid.Intersect(t.span)
	if !ok {
		return nil
	}
	grown := treeInsert(t.f, &t.ar, t.root, t.span.Start, t.span.End,
		iv.Start, iv.End, tu.Value)
	t.stats.grow(grown)
	t.stats.addTuple()
	return nil
}

// AddBatch absorbs one page of tuples through Add.
func (t *Tree) AddBatch(ts []tuple.Tuple) error {
	for i := range ts {
		if err := t.Add(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Finish performs the depth-first traversal (§5.1), merging each node's
// contribution into the accumulated state and emitting one row per leaf,
// then returns the arena's slabs to the shared pool and publishes the
// run's counters.
func (t *Tree) Finish() (*Result, error) {
	// A full binary tree with L leaves has 2L-1 nodes; size Rows for the
	// exact leaf count so emission never reallocates.
	leaves := (int(t.stats.liveNodes.Load()) + 1) / 2
	res := &Result{Func: t.f, Rows: make([]Row, 0, leaves)}
	emitSubtree(t.f, t.root, t.span.Start, t.span.End, t.f.Zero(), res)
	t.root = nil
	c := t.stats.counters()
	c.ArenaSlabs, c.ArenaReused = t.ar.release()
	Publish(t.sink, AggregationTree.String(), c)
	return res, nil
}

// Stats reports the evaluator's counters.
func (t *Tree) Stats() Stats { return t.stats.snapshot() }
