package core

import (
	"fmt"

	"tempagg/internal/aggregate"
	"tempagg/internal/tuple"
)

// noCopy marks a struct as copy-hostile. An evaluator owns live tree state
// — node pools, GC bookkeeping, peak counters — so a by-value copy would
// create two owners of one structure. The type carries pointer-receiver
// Lock/Unlock no-ops, the convention both go vet's copylocks and
// tempagglint's lockcopy analyzer key on, so any copy is reported at build
// time. Include it as a named field (never embed it, which would promote
// Lock into the public method set).
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NodeBytes is the memory cost charged per structure node, matching the
// paper's accounting (§6.2): both tree algorithms and the linked list use
// 16 bytes per node (two pointers or two timestamps, an aggregate value, and
// a split timestamp).
const NodeBytes = 16

// Stats records the work and space an evaluator used, mirroring the
// quantities the paper reports (CPU time is measured by the caller; memory
// follows the 16-bytes-per-node model of §6.2).
type Stats struct {
	// Tuples is the number of tuples absorbed.
	Tuples int
	// LiveNodes is the current number of structure nodes.
	LiveNodes int
	// PeakNodes is the high-water mark of LiveNodes — the paper's
	// main-memory requirement (Figure 9).
	PeakNodes int
	// Collected is the number of nodes reclaimed by garbage collection
	// (k-ordered aggregation tree only).
	Collected int
}

// PeakBytes is the paper's main-memory requirement in bytes.
func (s Stats) PeakBytes() int64 { return int64(s.PeakNodes) * NodeBytes }

// LiveBytes is the current structure size in bytes.
func (s Stats) LiveBytes() int64 { return int64(s.LiveNodes) * NodeBytes }

// Evaluator computes a temporal aggregate grouped by instant from a single
// scan of the relation. Implementations are the linked list, the aggregation
// tree, the k-ordered aggregation tree, and the balanced aggregation tree.
type Evaluator interface {
	// Add absorbs one tuple.
	Add(t tuple.Tuple) error
	// AddBatch absorbs a page of tuples, equivalent to calling Add on each
	// in order: one call per page instead of one interface call per tuple.
	// On an invalid tuple it stops and returns the error; tuples before the
	// failing one are absorbed, as they would be under per-tuple Add.
	// Callers feed pages of BatchPage tuples.
	AddBatch(ts []tuple.Tuple) error
	// Finish completes the computation and returns the constant intervals
	// in time order; an observed evaluator publishes its one counters
	// record here. The evaluator must not be reused afterwards.
	Finish() (*Result, error)
	// Stats reports work and space counters; valid at any point, and safe
	// to call from another goroutine while Add or Finish is in flight:
	// every counter is read atomically and PeakNodes ≥ LiveNodes always
	// holds, though an in-flight Add may be only partly counted.
	Stats() Stats
}

// Algorithm names an evaluation strategy.
type Algorithm int

const (
	// LinkedList is the naive single-scan list algorithm (§4.2).
	LinkedList Algorithm = iota
	// AggregationTree is the unbalanced tree of constant intervals (§5.1).
	AggregationTree
	// KOrderedTree is the aggregation tree with garbage collection for
	// k-ordered relations (§5.3).
	KOrderedTree
	// BalancedTree is the future-work self-balancing variant (§7).
	BalancedTree
	// SweepEval is the columnar event-sweep evaluator: tuples become
	// timestamped deltas, the event column is radix-sorted, and the constant
	// intervals fall out of one prefix scan (see sweep.go). Exact for all
	// five aggregates; fastest for the decomposable ones (COUNT/SUM/AVG).
	SweepEval
)

// String returns the algorithm's name as used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case LinkedList:
		return "linked-list"
	case AggregationTree:
		return "aggregation-tree"
	case KOrderedTree:
		return "k-ordered-tree"
	case BalancedTree:
		return "balanced-tree"
	case SweepEval:
		return "sweep"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Spec selects and parameterizes an algorithm.
type Spec struct {
	Algorithm Algorithm
	// K is the k-orderedness bound; used by KOrderedTree only. K = 0 demands
	// a totally ordered relation; the paper's headline strategy is K = 1
	// over a sorted relation.
	K int
}

// New constructs an evaluator for the given spec and aggregate.
func New(spec Spec, f aggregate.Func) (Evaluator, error) {
	switch spec.Algorithm {
	case LinkedList:
		return NewLinkedList(f), nil
	case AggregationTree:
		return NewAggregationTree(f), nil
	case KOrderedTree:
		return NewKOrderedTree(f, spec.K)
	case BalancedTree:
		return NewBalancedTree(f), nil
	case SweepEval:
		return NewSweep(f), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", spec.Algorithm)
}

// Run evaluates tuples through a fresh evaluator built from spec.
func Run(spec Spec, f aggregate.Func, tuples []tuple.Tuple) (*Result, Stats, error) {
	return RunObserved(spec, f, tuples, nil)
}
