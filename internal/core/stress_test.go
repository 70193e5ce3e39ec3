package core

import (
	"math/rand"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// TestDeepLeftSpineTree: reverse-sorted input grows the aggregation tree
// down its *left* spine; the emit traversal recurses ~2n deep. This guards
// the recursion structure against stack overflow (Go grows goroutine
// stacks, but only if nothing forces fixed frames). Insertion itself is
// O(n²) on this adversarial order — the paper's worst case — so the size
// stays moderate.
func TestDeepLeftSpineTree(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-spine stress test")
	}
	const n = 25_000
	f := aggregate.For(aggregate.Count)
	tree := NewAggregationTree(f)
	for i := n; i > 0; i-- {
		tu := tuple.MustNew("t", 1, int64(i)*5, int64(i)*5+2)
		if err := tree.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*n+1 {
		t.Fatalf("%d rows, want %d", len(res.Rows), 2*n+1)
	}
}

// TestDeepRightSpineTree: sorted input grows the right spine; emit handles
// it iteratively, so this must be cheap and safe at the same scale.
func TestDeepRightSpineTree(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-spine stress test")
	}
	const n = 50_000
	f := aggregate.For(aggregate.Sum)
	tree := NewAggregationTree(f)
	for i := 0; i < n; i++ {
		tu := tuple.MustNew("t", 2, int64(i)*5, int64(i)*5+2)
		if err := tree.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedTreeStaysShallow: the AVL variant must keep its height
// logarithmic on sorted input — the whole point of the §7 extension.
func TestBalancedTreeStaysShallow(t *testing.T) {
	f := aggregate.For(aggregate.Count)
	bt := NewBalancedTree(f)
	const n = 50_000
	for i := 0; i < n; i++ {
		tu := tuple.MustNew("t", 1, int64(i)*3, int64(i)*3+1)
		if err := bt.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	// ~2n+1 leaves; an AVL tree over them has height <= 1.44·log2(4n).
	if h := bt.root.height; h > 30 {
		t.Fatalf("balanced tree height %d over %d inserts; not balanced", h, n)
	}
	res, err := bt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedTreeHeightInvariant verifies the AVL balance factor on every
// node after random insertions.
func TestBalancedTreeHeightInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	f := aggregate.For(aggregate.Min)
	bt := NewBalancedTree(f)
	for i := 0; i < 3000; i++ {
		s := r.Int63n(100000)
		tu := tuple.MustNew("t", r.Int63n(100), s, s+r.Int63n(5000))
		if err := bt.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	var check func(n *bNode) int
	check = func(n *bNode) int {
		if n == nil {
			return -1
		}
		lh, rh := check(n.left), check(n.right)
		if bf := lh - rh; bf < -1 || bf > 1 {
			t.Fatalf("balance factor %d at split %d", bf, n.split)
		}
		want := lh
		if rh > want {
			want = rh
		}
		want++
		if n.height != want {
			t.Fatalf("stale height at split %d: %d, want %d", n.split, n.height, want)
		}
		return want
	}
	check(bt.root)
}

// TestKTreeSustainedStream: a long k-ordered stream through a small-k tree
// keeps live memory bounded the whole way, not just at the end.
func TestKTreeSustainedStream(t *testing.T) {
	f := aggregate.For(aggregate.Avg)
	kt, err := NewKOrderedTree(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(82))
	const n = 100_000
	maxLive := 0
	base := int64(0)
	for i := 0; i < n; i++ {
		base += r.Int63n(10)
		s := base
		if i%3 == 0 && s >= 4 {
			s -= 4 // within the k=2 disorder budget for this arrival rate
		}
		tu := tuple.MustNew("t", r.Int63n(1000), s, s+r.Int63n(40))
		if err := kt.Add(tu); err != nil {
			t.Fatal(err)
		}
		if live := kt.Stats().LiveNodes; live > maxLive {
			maxLive = live
		}
	}
	if maxLive > 512 {
		t.Fatalf("live nodes reached %d during the stream; gc is not keeping up", maxLive)
	}
	res, err := kt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeRandomAgreement cross-checks the tree algorithms at a scale the
// O(n²) oracle cannot reach, using the linked list as the independent
// implementation.
func TestLargeRandomAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("large agreement test")
	}
	r := rand.New(rand.NewSource(83))
	f := aggregate.For(aggregate.Sum)
	ts := make([]tuple.Tuple, 20_000)
	for i := range ts {
		s := r.Int63n(1_000_000)
		ts[i] = tuple.MustNew("t", r.Int63n(1000)-500, s, s+r.Int63n(10_000))
	}
	want, _, err := Run(Spec{Algorithm: LinkedList}, f, ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Algorithm: AggregationTree},
		{Algorithm: BalancedTree},
		{Algorithm: KOrderedTree, K: len(ts)},
	} {
		got, _, err := Run(spec, f, ts)
		if err != nil {
			t.Fatalf("%v: %v", spec.Algorithm, err)
		}
		resultsIdentical(t, spec.Algorithm.String(), got, want)
	}
	pres, _, err := EvaluatePartitioned(f, ts, PartitionOptions{
		Boundaries: UniformBoundaries(interval.MustNew(0, 1_009_999), 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Equal(want) {
		t.Fatal("partitioned evaluation disagrees at scale")
	}
}
