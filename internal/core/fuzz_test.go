package core

import (
	"math/rand"
	"sort"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// kDisorder returns ts sorted by time and then disordered to a displacement
// bound of at most k: the sorted slice is cut into consecutive blocks of
// k+1 tuples and each block is shuffled in place. No tuple moves more than
// k positions from its sorted slot, so the result is k-ordered by
// construction (§5.3).
func kDisorder(r *rand.Rand, ts []tuple.Tuple, k int) []tuple.Tuple {
	out := append([]tuple.Tuple(nil), ts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Less(out[j]) })
	for lo := 0; lo < len(out); lo += k + 1 {
		hi := lo + k + 1
		if hi > len(out) {
			hi = len(out)
		}
		block := out[lo:hi]
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return out
}

// FuzzKTreeGCThreshold drives the k-ordered tree's garbage collector with
// inputs that are k-ordered by construction and checks the §5.3 invariant
// end to end: the gc-threshold (the evaluator's root low bound) must never
// overtake a future tuple's start — KTree.Add reports exactly that
// violation as an error — and the surviving tree plus the already-emitted
// prefix must still reproduce the oracle's result.
func FuzzKTreeGCThreshold(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40))
	f.Add(int64(2), uint8(1), uint8(120))
	f.Add(int64(3), uint8(4), uint8(200))
	f.Add(int64(4), uint8(8), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kb, nb uint8) {
		k := int(kb % 9)
		n := int(nb)
		r := rand.New(rand.NewSource(seed))
		ts := kDisorder(r, randomTuples(r, n, 1000), k)
		fn := aggregate.For(aggregate.Kinds()[int(seed%5+5)%5])

		kt, err := NewKOrderedTree(fn, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range ts {
			if err := kt.Add(tu); err != nil {
				t.Fatalf("k=%d input rejected (gc-threshold overtook a future start): %v", k, err)
			}
		}
		res, err := kt.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if !res.Equal(Reference(fn, ts)) {
			t.Fatalf("k=%d n=%d: k-ordered tree differs from oracle", k, n)
		}
		stats := kt.Stats()
		if stats.Tuples != n {
			t.Fatalf("stats.Tuples = %d, want %d", stats.Tuples, n)
		}
		if stats.Collected < 0 || stats.LiveNodes < 0 || stats.PeakNodes < stats.LiveNodes {
			t.Fatalf("inconsistent node accounting: %+v", stats)
		}
	})
}

// FuzzSweepVsReference drives the columnar sweep across every aggregate,
// every input order (sorted, k-ordered, random as generated), and both
// MIN/MAX regimes (wedge and forced tree fallback), diffing each run against
// the oracle. It also exercises column-pool reuse: the first evaluation
// poisons the shared column pool, so later runs sweep over recycled buffers
// whose stale bits must never surface.
func FuzzSweepVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(0))
	f.Add(int64(2), uint8(3), uint8(120), uint8(1))
	f.Add(int64(3), uint8(7), uint8(255), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, kindB, nb, orderB uint8) {
		r := rand.New(rand.NewSource(seed))
		fn := aggregate.For(aggregate.Kinds()[int(kindB)%5])
		n := int(nb)
		ts := randomTuples(r, n, 1000)
		switch orderB % 3 {
		case 1:
			sort.SliceStable(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
		case 2:
			ts = kDisorder(r, ts, int(orderB%9))
		}
		want := Reference(fn, ts)
		for _, bound := range []int{0, 1} {
			ev := NewSweep(fn)
			ev.WedgeBound = bound
			for _, tu := range ts {
				if err := ev.Add(tu); err != nil {
					t.Fatal(err)
				}
			}
			res, err := ev.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("bound=%d: %v", bound, err)
			}
			if !res.Equal(want) {
				t.Fatalf("bound=%d n=%d %v: sweep differs from oracle", bound, n, fn.Kind())
			}
			if stats := ev.Stats(); stats.Tuples != n {
				t.Fatalf("stats.Tuples = %d, want %d", stats.Tuples, n)
			}
		}
	})
}

// FuzzArenaReuse pins the arena's cross-query hygiene: a slab returned to
// the shared pool carries the previous run's bits, and alloc must zero every
// node it hands out — from the bump pointer and from the GC free list alike.
// The fuzz body poisons the pools with one evaluation, then re-evaluates on
// recycled slabs (aggregation tree) and on a GC-heavy k-ordered run (free-
// list reuse) and diffs both against the oracle; stale state would surface
// as a value or structure mismatch.
func FuzzArenaReuse(f *testing.F) {
	f.Add(int64(1), uint8(60))
	f.Add(int64(2), uint8(180))
	f.Add(int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nb uint8) {
		n := int(nb)
		r := rand.New(rand.NewSource(seed))
		fn := aggregate.For(aggregate.Sum)

		// Poison pass: fill slabs with a real evaluation's nodes, then
		// release them (dirty) back to the shared pools.
		poison := randomTuples(r, n, 700)
		if _, _, err := Run(Spec{Algorithm: AggregationTree}, fn, poison); err != nil {
			t.Fatal(err)
		}

		// Bump-path reuse: a fresh evaluation drawing recycled slabs must
		// match the oracle exactly.
		ts := randomTuples(r, n, 700)
		res, _, err := Run(Spec{Algorithm: AggregationTree}, fn, ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if !res.Equal(Reference(fn, ts)) {
			t.Fatal("recycled-slab evaluation differs from oracle")
		}

		// Free-list reuse: a sorted k=1 run garbage-collects aggressively,
		// so splits are served from recycled nodes mid-evaluation.
		sorted := append([]tuple.Tuple(nil), ts...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		kres, kstats, err := Run(Spec{Algorithm: KOrderedTree, K: 1}, fn, sorted)
		if err != nil {
			t.Fatal(err)
		}
		if !kres.Equal(Reference(fn, sorted)) {
			t.Fatal("free-list-reuse evaluation differs from oracle")
		}
		if n > 0 && kstats.Collected == 0 && kstats.PeakNodes > 64 {
			t.Fatalf("sorted k=1 run collected nothing (peak %d): GC regressed", kstats.PeakNodes)
		}

		// Direct free-list check: a poisoned node recycled and re-allocated
		// must come back zeroed.
		ar := newArena[treeNode](treeSlabPool)
		p := ar.alloc()
		p.split = 123
		p.state = fn.Add(fn.Zero(), 42)
		p.left, p.right = p, p
		ar.recycle(p)
		q := ar.alloc()
		//tempagglint:ignore arenaescape the identity comparison against the recycled pointer is the point of this free-list test; the node is never dereferenced through p
		if q != p {
			t.Fatal("free list did not serve the recycled node")
		}
		if q.split != 0 || !q.state.Empty() || q.left != nil || q.right != nil {
			t.Fatalf("recycled node not zeroed: %+v", *q)
		}
		if _, reused := ar.release(); reused != 1 {
			t.Fatal("release must report one free-list reuse")
		}
	})
}

// FuzzIndexVsReference is the differential fuzz target for the interval
// index: whatever the tuple shape, the windowed lookup must match the
// clipped oracle for every aggregate kind, and the full-timeline read must
// match the oracle exactly. The window endpoints are fuzzer-chosen, so
// boundary-aligned, interior, instant, and past-horizon windows all occur.
func FuzzIndexVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint16(0), uint16(100))
	f.Add(int64(2), uint8(3), uint8(120), uint16(500), uint16(40))
	f.Add(int64(3), uint8(7), uint8(255), uint16(999), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, kindB, nb uint8, aW, widthW uint16) {
		r := rand.New(rand.NewSource(seed))
		fn := aggregate.For(aggregate.Kinds()[int(kindB)%5])
		ts := randomTuples(r, int(nb), 1000)
		idx, err := NewIntervalIndex(ts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := idx.Result(fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Validate(); err != nil {
			t.Fatal(err)
		}
		want := Reference(fn, ts)
		if !full.Equal(want) {
			t.Fatalf("n=%d %v: index full result differs from oracle", nb, fn.Kind())
		}
		w := interval.MustNew(interval.Time(aW), interval.Time(aW)+interval.Time(widthW))
		got, err := idx.Range(fn, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.ValidatePartition(w.Start, w.End); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Clip(w)) {
			t.Fatalf("n=%d %v window %v: index range differs from clipped oracle", nb, fn.Kind(), w)
		}
	})
}
