package core

import "sync"

// The evaluators' per-tuple hot paths split leaves by allocating structure
// nodes — two per split, up to four per tuple. Allocating each node through
// the garbage collector makes the sweep allocation-bound: a 64K-tuple
// aggregation-tree run performs ~250K tiny heap allocations whose lifetime
// is exactly the evaluation. The slab arena below replaces them with bump
// allocation out of fixed-size slabs that are recycled through a shared
// sync.Pool when the evaluator finishes, so steady-state query traffic
// stops allocating node memory altogether.
//
// The arena deliberately changes nothing about the paper's §6.2 cost model:
// live/peak node accounting still flows through statsCell at 16 bytes per
// node (core.NodeBytes), and the k-ordered tree's garbage collection still
// returns nodes — to the arena's free list, where the next split reuses
// them, keeping the resident footprint proportional to the paper's
// LiveNodes figure rather than to nodes-ever-allocated. Arena traffic
// (slabs retained, nodes reused) goes into the run's counters record at
// release time.

// arenaSlabNodes is the number of nodes per slab. At core.NodeBytes of
// model cost (48–56 real bytes per node type), a slab is a few tens of
// kilobytes — big enough to amortize pool round-trips, small enough that an
// almost-empty evaluator wastes little.
const arenaSlabNodes = 1024

// BatchPage is the page size of the batch-ingestion path: AddBatch callers
// (relation scans, partition bucket drains, RunObserved) feed tuples in
// pages of this many rather than one interface call per tuple.
const BatchPage = 512

// newSlabPool returns a shared pool of node slabs for one node type. Slabs
// are pooled as *[]T so a Put does not allocate a slice header.
func newSlabPool[T any]() *sync.Pool {
	return &sync.Pool{New: func() any {
		s := make([]T, arenaSlabNodes)
		return &s
	}}
}

// Shared slab pools, one per node type. Evaluators on any goroutine draw
// from and return to these; the pool handles the synchronization.
var (
	treeSlabPool = newSlabPool[treeNode]()
	bSlabPool    = newSlabPool[bNode]()
	listSlabPool = newSlabPool[listNode]()
)

// arena is a single-owner slab allocator for one evaluator run. It is not
// safe for concurrent use — like the evaluator that embeds it, it has one
// writer (the Evaluator contract's Add goroutine). Nodes are zeroed at
// allocation, never at recycling, so a slab fresh from the shared pool can
// carry a previous query's bits without leaking them (FuzzArenaReuse pins
// this).
type arena[T any] struct {
	pool  *sync.Pool
	slabs []*[]T
	used  int  // nodes handed out of the newest slab
	free  []*T // nodes returned by garbage collection, ready for reuse
	freed int  // nodes served from the free list over the run
}

// newArena returns an arena drawing slabs from the given shared pool.
func newArena[T any](pool *sync.Pool) arena[T] {
	return arena[T]{pool: pool}
}

// alloc returns a zeroed node, preferring the free list, then the newest
// slab's bump pointer, then a (possibly recycled) slab from the pool.
func (a *arena[T]) alloc() *T {
	var zero T
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		a.freed++
		*p = zero
		return p
	}
	if len(a.slabs) == 0 || a.used == arenaSlabNodes {
		a.slabs = append(a.slabs, a.pool.Get().(*[]T))
		a.used = 0
	}
	p := &(*a.slabs[len(a.slabs)-1])[a.used]
	a.used++
	*p = zero
	return p
}

// recycle returns one garbage-collected node to the free list. The caller
// must guarantee no live pointer to it remains (the k-ordered tree's GC
// only ever removes already-emitted, unreachable prefixes).
func (a *arena[T]) recycle(p *T) {
	a.free = append(a.free, p)
}

// release returns every slab to the shared pool and resets the arena,
// reporting the slab count and the number of free-list reuses for the
// run's arena counters. The owning evaluator must have dropped all
// node pointers first; release is the teardown half of Finish.
func (a *arena[T]) release() (slabs, reused int) {
	slabs, reused = len(a.slabs), a.freed
	for _, s := range a.slabs {
		a.pool.Put(s)
	}
	a.slabs, a.free = nil, nil
	a.used, a.freed = 0, 0
	return slabs, reused
}

// The sweep evaluator (sweep.go) keeps struct-of-arrays buffers — event
// timestamps, deltas, tuple columns — that the radix sort scatters by
// absolute index, so unlike tree nodes they must be *contiguous*: whole
// []int64 slices are pooled and regrown geometrically rather than chunked
// into slabs. The same recycling contract applies: buffers come back from
// the shared pool carrying a previous run's bits, and owners only ever read
// indices they wrote (FuzzSweepVsReference exercises reuse).

// colMinCap is the smallest column capacity handed out; below it the pool
// round-trip costs more than the allocation it saves.
const colMinCap = 1024

// colPool is the shared pool of int64 columns. It has no New function:
// a Get miss returns nil and the colArena allocates fresh, which is how
// pool reuse stays countable for the obs arena counters.
var colPool sync.Pool

// colArena hands out pooled contiguous int64 columns for one evaluator run.
// Like arena, it is single-owner: one writer, no locking. It counts columns
// acquired and pool hits for ArenaRelease reporting at Finish.
type colArena struct {
	acquired int // columns handed out over the run
	reused   int // of those, recycled from the shared pool
}

// acquire returns an empty column with at least the given capacity,
// preferring a recycled buffer from the shared pool. A pooled buffer too
// small for the request is dropped on the floor — the next release replaces
// it with a bigger one, so the pool's sizes track the workload.
func (a *colArena) acquire(capacity int) []int64 {
	if capacity < colMinCap {
		capacity = colMinCap
	}
	a.acquired++
	if p, _ := colPool.Get().(*[]int64); p != nil && cap(*p) >= capacity {
		a.reused++
		return (*p)[:0]
	}
	//tempagglint:ignore poolbalance an undersized pooled buffer is dropped on purpose so pooled capacities track the workload (see function comment)
	return make([]int64, 0, capacity)
}

// grow returns col with capacity for at least capacity elements, preserving
// its contents; if a new buffer is needed the old one is recycled. Doubling
// keeps appends amortized O(1).
func (a *colArena) grow(col []int64, capacity int) []int64 {
	if cap(col) >= capacity {
		return col
	}
	if c := 2 * cap(col); c > capacity {
		capacity = c
	}
	next := a.acquire(capacity)[:len(col)]
	copy(next, col)
	a.release(col)
	return next
}

// push appends v to col, growing through the pool instead of the garbage
// collector when full. This is the sweep's per-event hot path.
func (a *colArena) push(col []int64, v int64) []int64 {
	if len(col) == cap(col) {
		col = a.grow(col, len(col)+1)
	}
	return append(col, v)
}

// release returns col's backing store to the shared pool. The caller must
// drop its own reference; release is the teardown half of Finish.
func (a *colArena) release(col []int64) {
	if cap(col) == 0 {
		return
	}
	s := col[:0]
	colPool.Put(&s)
}

// counters reports columns acquired and pool reuses over the run, the
// quantities recorded as the run's arena counters.
func (a *colArena) counters() (cols, reused int) {
	return a.acquired, a.reused
}
