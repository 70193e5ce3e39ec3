package obs

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceCounters is the trace-side snapshot of core.Stats (duplicated here
// rather than imported so obs stays below core in the dependency order).
// Sums are across every evaluator the query ran — one per attribute group
// and select-list aggregate — except PeakNodes, which is the maximum.
type TraceCounters struct {
	Tuples    int `json:"tuples"`
	LiveNodes int `json:"live_nodes"`
	PeakNodes int `json:"peak_nodes"`
	Collected int `json:"collected"`
}

// Span is one node of a query's trace tree. Top-level spans are the query's
// stages (parse, plan, sort, execute, finish); stages fan out into children
// — the sweep's radix-sort and scan spans, per-partition shard spans —
// each carrying its own §6 counter snapshot, wall/CPU time,
// and heap-allocation delta.
//
// A span becomes visible (attached to its parent, or to the trace when it
// has none) only when End is called, so readers of a finished trace never
// see half-built nodes. A nil *Span is the disabled state: every method,
// End included, is a no-op on it.
type Span struct {
	Name     string        `json:"name"`
	SpanID   string        `json:"span_id,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// CPUTime is the process CPU (user+system) consumed while the span was
	// open. Concurrent spans overlap in process CPU, so a worker span's
	// value is an upper bound; the wall/CPU ratio of the enclosing stage is
	// the parallelism-efficiency signal.
	CPUTime time.Duration `json:"cpu_ns,omitempty"`
	// AllocBytes is the process-wide heap-allocation delta over the span
	// (runtime/metrics /gc/heap/allocs:bytes), best-effort under overlap.
	AllocBytes int64             `json:"alloc_bytes,omitempty"`
	Counters   *TraceCounters    `json:"counters,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*Span           `json:"children,omitempty"`

	tr     *QueryTrace
	parent *Span
	cpu0   time.Duration
	alloc0 uint64
}

func newSpan(tr *QueryTrace, parent *Span, name string) *Span {
	return &Span{
		Name:   name,
		SpanID: randHex64(),
		Start:  time.Now(),
		tr:     tr,
		parent: parent,
		cpu0:   processCPU(),
		alloc0: heapAllocBytes(),
	}
}

// StartChild opens a child span under s; close it with End. Safe to call
// concurrently from worker goroutines — children attach under the trace's
// lock when they End.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.tr, s, name)
}

// End closes the span: stamps wall/CPU time and the allocation delta, and
// attaches the span to its parent (or the trace's top level) so it becomes
// visible to trace readers.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	if cpu := processCPU(); cpu > s.cpu0 {
		s.CPUTime = cpu - s.cpu0
	}
	if alloc := heapAllocBytes(); alloc > s.alloc0 {
		s.AllocBytes = int64(alloc - s.alloc0)
	}
	tr := s.tr
	tr.mu.Lock()
	if s.parent != nil {
		s.parent.Children = append(s.parent.Children, s)
	} else {
		tr.Spans = append(tr.Spans, s)
	}
	tr.mu.Unlock()
}

// SetAttr records a key/value annotation on the span (worker index,
// partition span, chunk count, ...).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
	s.tr.mu.Unlock()
}

// AddCounters folds a §6 counter snapshot into the span's own node: sums
// for tuples, live, and collected nodes; maximum for the peak — the same
// fold QueryTrace.AddStats applies at query level.
func (s *Span) AddCounters(tuples, liveNodes, peakNodes, collected int) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Counters == nil {
		s.Counters = &TraceCounters{}
	}
	s.Counters.Tuples += tuples
	s.Counters.LiveNodes += liveNodes
	s.Counters.Collected += collected
	if peakNodes > s.Counters.PeakNodes {
		s.Counters.PeakNodes = peakNodes
	}
	s.tr.mu.Unlock()
}

// Context returns the propagation context rooted at this span: child spans
// started through it attach under s. A nil span yields the inactive zero
// context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.tr.TraceID, SpanID: s.SpanID, Sampled: true, span: s}
}

// TraceContext is the W3C-traceparent-shaped propagation handle threaded
// through core (SweepOptions, PartitionOptions): 16-byte trace
// ID and 8-byte parent span ID, hex-encoded. In process it also carries the
// parent *Span so workers can attach children directly.
//
// The zero TraceContext is the disabled state: Active reports false and
// StartChild returns a nil (no-op) span, so threading it unconditionally
// costs one pointer compare.
type TraceContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Sampled bool   `json:"sampled"`

	span *Span
	tr   *QueryTrace
}

// Active reports whether the context can record spans in this process.
func (c TraceContext) Active() bool { return c.span != nil || c.tr != nil }

// StartChild opens a span under the context's parent span (or at the
// trace's top level for a trace-rooted context); nil-safe.
func (c TraceContext) StartChild(name string) *Span {
	if c.span != nil {
		return c.span.StartChild(name)
	}
	return c.tr.StartSpan(name)
}

func randHex64() string { return fmt.Sprintf("%016x", rand.Uint64()|1) }

func randHex128() string { return fmt.Sprintf("%016x%016x", rand.Uint64()|1, rand.Uint64()|1) }

// QueryTrace is the per-query record: the text, the plan the optimizer
// chose (with every alternative it priced), the span tree, and the full
// evaluator-counter snapshot. The trace itself is the tree's root — its
// Start/Duration/Stats are the root span's — and Spans holds the top-level
// stage spans. A nil *QueryTrace is the disabled state; every method no-ops
// on it, so the query layer threads traces unconditionally.
type QueryTrace struct {
	ID        int64         `json:"id"`
	TraceID   string        `json:"trace_id,omitempty"`
	Query     string        `json:"query"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Algorithm string        `json:"algorithm,omitempty"`
	K         int           `json:"k,omitempty"`
	Plan      string        `json:"plan,omitempty"`
	Costs     []PlanCost    `json:"plan_costs,omitempty"`
	Groups    int           `json:"groups,omitempty"`
	Stats     TraceCounters `json:"stats"`
	Err       string        `json:"error,omitempty"`
	Spans     []*Span       `json:"spans,omitempty"`

	mu   sync.Mutex
	sink Sink
}

// PlanCost is one planner alternative's estimated cost, recorded on the
// trace next to the chosen plan so EXPLAIN ANALYZE (and the slow log) can
// report estimated-vs-actual deltas.
type PlanCost struct {
	Algorithm string  `json:"algorithm"`
	Detail    string  `json:"detail,omitempty"`
	Cost      float64 `json:"cost"`
	Chosen    bool    `json:"chosen,omitempty"`
}

// NewQueryTrace returns a standalone trace with a fresh trace ID and no
// sink — the form EXPLAIN ANALYZE uses when no observer is installed.
func NewQueryTrace(sql string) *QueryTrace {
	return &QueryTrace{Query: sql, TraceID: randHex128(), Start: time.Now()}
}

// StartSpan opens a top-level stage span; close it with End.
func (tr *QueryTrace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return newSpan(tr, nil, name)
}

// Context returns the trace-rooted propagation context: spans started
// through it attach at the trace's top level.
func (tr *QueryTrace) Context() TraceContext {
	if tr == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: tr.TraceID, Sampled: true, tr: tr}
}

// SetPlan records the optimizer's choice.
func (tr *QueryTrace) SetPlan(algorithm string, k int, plan string) {
	if tr == nil {
		return
	}
	tr.Algorithm, tr.K, tr.Plan = algorithm, k, plan
}

// SetPlanCosts records every alternative the planner priced.
func (tr *QueryTrace) SetPlanCosts(costs []PlanCost) {
	if tr == nil {
		return
	}
	tr.Costs = costs
}

// AddStats folds one evaluator's final counters into the trace snapshot:
// sums for tuples, live, and collected nodes; maximum for the peak.
func (tr *QueryTrace) AddStats(tuples, liveNodes, peakNodes, collected int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Stats.Tuples += tuples
	tr.Stats.LiveNodes += liveNodes
	tr.Stats.Collected += collected
	if peakNodes > tr.Stats.PeakNodes {
		tr.Stats.PeakNodes = peakNodes
	}
	tr.mu.Unlock()
}

// SetGroups records how many result groups the query produced.
func (tr *QueryTrace) SetGroups(n int) {
	if tr == nil {
		return
	}
	tr.Groups = n
}

// Sink exposes the evaluator-event sink for the executing query, or nil
// when tracing is disabled.
func (tr *QueryTrace) Sink() Sink {
	if tr == nil {
		return nil
	}
	return tr.sink
}

// SpanTree returns the top-level spans of a finished trace (nil-safe).
func (tr *QueryTrace) SpanTree() []*Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*Span(nil), tr.Spans...)
}

// TraceBuffer is a fixed-capacity ring of the most recent query traces,
// served by /debug/traces.
type TraceBuffer struct {
	mu   sync.Mutex
	ring []*QueryTrace
	next int
	full bool
}

// NewTraceBuffer returns a ring keeping the last n traces (n < 1 keeps 1).
func NewTraceBuffer(n int) *TraceBuffer {
	if n < 1 {
		n = 1
	}
	return &TraceBuffer{ring: make([]*QueryTrace, n)}
}

// Push appends one finished trace, evicting the oldest when full.
func (b *TraceBuffer) Push(tr *QueryTrace) {
	if b == nil || tr == nil {
		return
	}
	b.mu.Lock()
	b.ring[b.next] = tr
	b.next++
	if b.next == len(b.ring) {
		b.next, b.full = 0, true
	}
	b.mu.Unlock()
}

// Snapshot returns the buffered traces, oldest first.
func (b *TraceBuffer) Snapshot() []*QueryTrace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []*QueryTrace
	if b.full {
		out = append(out, b.ring[b.next:]...)
	}
	out = append(out, b.ring[:b.next]...)
	return out
}

// Observer bundles the pipeline's observability surfaces: metrics, the
// trace ring, the rolling per-stage latency window, and the slow-query
// log. A nil *Observer disables all four.
type Observer struct {
	Metrics *Metrics
	Traces  *TraceBuffer
	Queries *QueryStats
	Slow    *SlowLog

	nextID atomic.Int64
}

// NewObserver assembles an observer over a fresh registry with an n-entry
// trace ring and the given slow-query log (nil for none).
func NewObserver(traceCap int, slow *SlowLog) *Observer {
	return &Observer{
		Metrics: NewMetrics(NewRegistry()),
		Traces:  NewTraceBuffer(traceCap),
		Queries: NewQueryStats(QueryStatsConfig{}),
		Slow:    slow,
	}
}

// Registry returns the metrics registry, or nil when disabled.
func (o *Observer) Registry() *Registry {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Registry()
}

// TraceBuffer returns the trace ring, or nil when disabled.
func (o *Observer) TraceBuffer() *TraceBuffer {
	if o == nil {
		return nil
	}
	return o.Traces
}

// QueryStatsWindow returns the rolling per-stage latency window, or nil
// when disabled.
func (o *Observer) QueryStatsWindow() *QueryStats {
	if o == nil {
		return nil
	}
	return o.Queries
}

// StartQuery opens a trace for one query. The returned trace (nil when o
// is nil) is threaded through the query layer and closed by FinishQuery.
func (o *Observer) StartQuery(sql string) *QueryTrace {
	if o == nil {
		return nil
	}
	tr := &QueryTrace{
		ID:      o.nextID.Add(1),
		TraceID: randHex128(),
		Query:   sql,
		Start:   time.Now(),
	}
	if o.Metrics != nil {
		tr.sink = o.Metrics
	}
	return tr
}

// FinishQuery closes the trace: stamps the duration and error, records the
// per-algorithm query counters and latency histogram, folds the stage spans
// into the rolling /debug/queries window, writes the slow-query log entry
// when over threshold (write failures become a counter, not a query
// failure), and pushes the trace onto the ring.
func (o *Observer) FinishQuery(tr *QueryTrace, err error) {
	if o == nil || tr == nil {
		return
	}
	tr.Duration = time.Since(tr.Start)
	if err != nil {
		tr.Err = err.Error()
	}
	alg := tr.Algorithm
	if alg == "" {
		// Parse and resolution failures never reach the planner.
		alg = "none"
	}
	o.Metrics.RecordQuery(alg, tr.Duration, err != nil)
	o.Queries.ObserveTrace(tr)
	if logged, werr := o.Slow.Record(tr); logged {
		o.Metrics.RecordSlow(werr)
	}
	o.Traces.Push(tr)
}
