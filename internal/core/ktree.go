package core

import (
	"fmt"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/tuple"
)

// KTree implements the k-ordered aggregation tree (§5.3): the aggregation
// tree plus garbage collection of finished constant intervals, applicable
// when the relation is k-ordered (every tuple at most k positions from its
// place in the totally time-ordered relation) — including retroactively
// bounded relations, which are k-ordered for uniform arrival rates (§6).
//
// The evaluator keeps the start times of the last 2k+1 tuples. When tuple i
// arrives, the start time of tuple i−(2k+1) becomes the gc-threshold: every
// future tuple must start at or after it, so constant intervals ending
// before the threshold are finished. They are emitted to the result
// immediately and their nodes reclaimed — first whole left subtrees at the
// root (Figure 5.a), then leftmost leaves one at a time (Figure 5.b). GC
// only ever removes the earliest consecutive part of the tree, so no hole is
// created in the constant intervals and emission stays in time order.
type KTree struct {
	noCopy noCopy

	f aggregate.Func
	k int

	ar     arena[treeNode]
	root   *treeNode
	rootLo interval.Time // earliest instant still represented in the tree

	window []interval.Time // ring of the last 2k+1 tuple start times
	wpos   int

	emitted []Row
	// gcAt is the last garbage-collection watermark, valid once gcRan.
	gcAt  interval.Time
	gcRan bool

	sink  obs.Sink
	stats statsCell
}

var _ Evaluator = (*KTree)(nil)

// NewKOrderedTree returns a k-ordered aggregation-tree evaluator. k must be
// non-negative; the paper's headline strategy is sort-then-k=1, and k=0
// demands a totally ordered input.
func NewKOrderedTree(f aggregate.Func, k int) (*KTree, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: k-ordered tree requires k >= 0, got %d", k)
	}
	t := &KTree{
		f:      f,
		k:      k,
		ar:     newArena[treeNode](treeSlabPool),
		rootLo: interval.Origin,
		window: make([]interval.Time, 0, 2*k+1),
	}
	t.root = t.ar.alloc()
	t.stats.init(1)
	return t, nil
}

func (t *KTree) setSink(s obs.Sink) { t.sink = s }

// K reports the orderedness bound the evaluator was built with.
func (t *KTree) K() int { return t.k }

// Add inserts one tuple, updates stats, slides the window, and
// garbage-collects finished constant intervals. It returns an error if the
// input violates the declared k-orderedness — i.e. the tuple overlaps a
// constant interval that was already emitted.
func (t *KTree) Add(tu tuple.Tuple) error {
	if err := tu.Valid.Validate(); err != nil {
		return err
	}
	s, e := tu.Valid.Start, tu.Valid.End
	if s < t.rootLo {
		return fmt.Errorf(
			"core: relation is not %d-ordered: tuple %v starts before already-emitted instant %s",
			t.k, tu, interval.FormatTime(t.rootLo))
	}
	t.stats.grow(treeInsert(t.f, &t.ar, t.root, t.rootLo, interval.Forever, s, e, tu.Value))
	t.stats.addTuple()

	// Slide the 2k+1 window; once it is full, the evicted start time is the
	// gc-threshold (the start of the tuple 2k+1 positions back).
	if len(t.window) < cap(t.window) {
		t.window = append(t.window, s)
		return nil
	}
	threshold := t.window[t.wpos]
	t.window[t.wpos] = s
	t.wpos++
	if t.wpos == len(t.window) {
		t.wpos = 0
	}
	t.collect(threshold)
	return nil
}

// AddBatch absorbs one page of tuples through Add.
func (t *KTree) AddBatch(ts []tuple.Tuple) error {
	for i := range ts {
		if err := t.Add(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// collect reclaims every constant interval ending before threshold.
func (t *KTree) collect(threshold interval.Time) {
	t.gcAt, t.gcRan = threshold, true
	// Phase 1 (Figure 5.a): while the root's entire left half lies before
	// the threshold, emit it, fold the root's contribution into the right
	// child, and promote the right child. The emitted subtree and the old
	// root go back to the arena free list, so the next splits reuse them and
	// the resident footprint tracks LiveNodes, not nodes-ever-allocated.
	for !t.root.isLeaf() && t.root.split < threshold {
		before := len(t.emitted)
		sub := Result{Func: t.f}
		emitSubtree(t.f, t.root.left, t.rootLo, t.root.split, t.root.state, &sub)
		t.emitted = append(t.emitted, sub.Rows...)
		leaves := len(t.emitted) - before
		// A full binary subtree with L leaves has 2L-1 nodes; plus the root.
		t.stats.reclaim(2*leaves - 1 + 1)
		old := t.root
		old.right.state = t.f.Merge(old.right.state, old.state)
		t.rootLo = old.split + 1
		t.root = old.right
		t.recycleSubtree(old.left)
		t.ar.recycle(old)
	}
	// Phase 2 (Figure 5.b): splice out leftmost leaves one at a time while
	// they end before the threshold. When only the earlier of a node's two
	// leaves is collected, the node is removed and replaced by the
	// remaining child (its contribution folded in).
	for !t.root.isLeaf() {
		link := &t.root
		acc := t.f.Zero()
		for !(*link).left.isLeaf() {
			acc = t.f.Merge(acc, (*link).state)
			link = &(*link).left
		}
		parent := *link
		if parent.split >= threshold {
			return // the earliest remaining constant interval is unfinished
		}
		leafState := t.f.Merge(t.f.Merge(acc, parent.state), parent.left.state)
		t.emitted = append(t.emitted, Row{
			Interval: interval.MustNew(t.rootLo, parent.split),
			State:    leafState,
		})
		parent.right.state = t.f.Merge(parent.right.state, parent.state)
		*link = parent.right
		t.rootLo = parent.split + 1
		t.stats.reclaim(2)
		t.ar.recycle(parent.left)
		t.ar.recycle(parent)
	}
}

// recycleSubtree returns every node of the already-emitted subtree rooted at
// n to the arena free list. Recursion on left children mirrors emitSubtree:
// the right-spine chains that sorted input produces are walked iteratively.
func (t *KTree) recycleSubtree(n *treeNode) {
	for {
		left, right := n.left, n.right
		t.ar.recycle(n)
		if left == nil {
			return
		}
		t.recycleSubtree(left)
		n = right
	}
}

// Finish emits the remainder of the tree after the already garbage-collected
// prefix, publishes the run's counters, and returns the complete,
// time-ordered result.
func (t *KTree) Finish() (*Result, error) {
	res := &Result{Func: t.f, Rows: t.emitted}
	emitSubtree(t.f, t.root, t.rootLo, interval.Forever, t.f.Zero(), res)
	t.root = nil
	t.emitted = nil
	c := t.stats.counters()
	c.GCThreshold, c.GC = int64(t.gcAt), t.gcRan
	c.ArenaSlabs, c.ArenaReused = t.ar.release()
	Publish(t.sink, KOrderedTree.String(), c)
	return res, nil
}

// Stats reports the evaluator's counters, including nodes reclaimed by GC.
func (t *KTree) Stats() Stats { return t.stats.snapshot() }
