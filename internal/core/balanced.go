package core

import (
	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// bNode is a balanced-tree node: the aggregation-tree node plus an AVL
// height. Leaves have height 0.
type bNode struct {
	split       interval.Time
	state       aggregate.State
	left, right *bNode
	height      int
}

func (n *bNode) isLeaf() bool { return n.left == nil }

func bHeight(n *bNode) int {
	if n == nil {
		return -1
	}
	return n.height
}

func (n *bNode) fix() {
	lh, rh := bHeight(n.left), bHeight(n.right)
	if lh > rh {
		n.height = lh + 1
	} else {
		n.height = rh + 1
	}
}

// BTree is the balanced aggregation tree, the paper's future-work variant
// (§7): "One alternative to examine is a balanced aggregation tree, which
// should be especially efficient in the case of a k-ordered relation."
//
// The aggregation tree is a binary search tree over split timestamps whose
// leaves are the constant intervals, so ordinary AVL rotations preserve its
// search structure. The twist is the lazily placed aggregate contributions:
// a node's state applies to its entire covered range, and a rotation changes
// which range a node covers. Before rotating, contributions at the two nodes
// involved are pushed down to their children (a merge — exact for every
// decomposable aggregate), after which the rotation is purely structural.
// This removes the O(n²) degeneration on sorted input at the cost of
// rotation work per insert; the ablation benchmarks quantify the trade.
type BTree struct {
	noCopy noCopy

	f     aggregate.Func
	ar    arena[bNode]
	root  *bNode
	sink  obs.Sink
	stats statsCell
}

var _ Evaluator = (*BTree)(nil)

// NewBalancedTree returns a balanced aggregation-tree evaluator for f.
func NewBalancedTree(f aggregate.Func) *BTree {
	t := &BTree{f: f, ar: newArena[bNode](bSlabPool)}
	t.root = t.ar.alloc()
	t.stats.init(1)
	return t
}

func (t *BTree) setSink(s obs.Sink) { t.sink = s }

// Add inserts one tuple, rebalancing along the insertion path.
func (t *BTree) Add(tu tuple.Tuple) error {
	if err := tu.Valid.Validate(); err != nil {
		return err
	}
	t.root = t.insert(t.root, interval.Origin, interval.Forever,
		tu.Valid.Start, tu.Valid.End, tu.Value)
	t.stats.addTuple()
	return nil
}

// AddBatch absorbs one page of tuples through Add.
func (t *BTree) AddBatch(ts []tuple.Tuple) error {
	for i := range ts {
		if err := t.Add(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// insert places [s, e] with value v into the subtree rooted at n covering
// [lo, hi] and returns the (possibly rotated) subtree root.
func (t *BTree) insert(n *bNode, lo, hi, s, e interval.Time, v int64) *bNode {
	if s <= lo && hi <= e {
		n.state = t.f.Add(n.state, v)
		return n
	}
	if n.isLeaf() {
		if s > lo {
			n.split = s - 1
		} else {
			n.split = e
		}
		n.left = t.ar.alloc()
		n.right = t.ar.alloc()
		n.height = 1
		t.stats.grow(2)
	}
	if s <= n.split {
		n.left = t.insert(n.left, lo, n.split, s, e, v)
	}
	if e > n.split {
		n.right = t.insert(n.right, n.split+1, hi, s, e, v)
	}
	return t.rebalance(n)
}

// pushDown moves n's lazily placed contribution to its children so that a
// rotation can change n's covered range without corrupting the aggregate.
func (t *BTree) pushDown(n *bNode) {
	if n.isLeaf() || n.state.Empty() {
		return
	}
	n.left.state = t.f.Merge(n.left.state, n.state)
	n.right.state = t.f.Merge(n.right.state, n.state)
	n.state = t.f.Zero()
}

func (t *BTree) rotateRight(n *bNode) *bNode {
	t.pushDown(n)
	l := n.left
	t.pushDown(l)
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func (t *BTree) rotateLeft(n *bNode) *bNode {
	t.pushDown(n)
	r := n.right
	t.pushDown(r)
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

func (t *BTree) rebalance(n *bNode) *bNode {
	n.fix()
	switch bf := bHeight(n.left) - bHeight(n.right); {
	case bf > 1:
		if bHeight(n.left.left) < bHeight(n.left.right) {
			n.left = t.rotateLeft(n.left)
		}
		return t.rotateRight(n)
	case bf < -1:
		if bHeight(n.right.right) < bHeight(n.right.left) {
			n.right = t.rotateRight(n.right)
		}
		return t.rotateLeft(n)
	}
	return n
}

// Finish emits the constant intervals via depth-first traversal, returns
// the arena's slabs to the shared pool, and publishes the run's counters.
func (t *BTree) Finish() (*Result, error) {
	leaves := (int(t.stats.liveNodes.Load()) + 1) / 2
	res := &Result{Func: t.f, Rows: make([]Row, 0, leaves)}
	t.emit(t.root, interval.Origin, interval.Forever, t.f.Zero(), res)
	t.root = nil
	c := t.stats.counters()
	c.ArenaSlabs, c.ArenaReused = t.ar.release()
	Publish(t.sink, BalancedTree.String(), c)
	return res, nil
}

func (t *BTree) emit(n *bNode, lo, hi interval.Time, acc aggregate.State, res *Result) {
	acc = t.f.Merge(acc, n.state)
	if n.isLeaf() {
		res.Rows = append(res.Rows, Row{
			Interval: interval.MustNew(lo, hi),
			State:    acc,
		})
		return
	}
	t.emit(n.left, lo, n.split, acc, res)
	t.emit(n.right, n.split+1, hi, acc, res)
}

// Stats reports the evaluator's counters.
func (t *BTree) Stats() Stats { return t.stats.snapshot() }
