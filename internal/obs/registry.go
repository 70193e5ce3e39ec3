// Package obs is the observability layer for the tempagg pipeline: a
// zero-dependency metrics registry rendered in the Prometheus text
// exposition format, lightweight per-query trace spans, and a structured
// slow-query log.
//
// The paper's empirical study (§6) is entirely about measured cost — tuples
// scanned, structure nodes resident, nodes reclaimed by garbage collection,
// and the 16-bytes-per-node constant behind core.NodeBytes. This package
// makes the running system report those same quantities continuously: core
// evaluators publish one counters record per run through the narrow Sink
// interface, the query layer wraps each query in a QueryTrace, and the
// server exposes everything over /metrics and /debug/traces.
//
// Everything here is nil-safe by design: a nil *Observer, *QueryTrace,
// *Span, or *SlowLog is the disabled state, and every method on them is a
// cheap no-op, so instrumented code never needs an "is observability on"
// branch beyond the nil receiver check the calls already perform.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metric families. It is safe for concurrent
// use; rendering takes a point-in-time snapshot of every series.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label schema and one series per
// distinct label-value combination.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", or "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]metric // label-values key → series
}

// metric is one series of a family.
type metric interface {
	// write renders the series' sample lines. name is the family name and
	// labels the rendered {k="v",...} block ("" when the family has no
	// labels).
	write(w io.Writer, name, labels string) error
}

// seriesKey joins label values with a separator that cannot appear in a
// rendered label (label values are escaped before rendering, so the raw
// byte is safe as a map key separator).
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

func (r *Registry) lookup(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			labels: append([]string(nil), labels...),
			series: map[string]metric{},
		}
		if typ == "histogram" {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
	}
	return f
}

func (f *family) get(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.series[key]; ok {
		return m
	}
	m = make()
	f.series[key] = m
	return m
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; negative deltas are ignored (a counter is
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
	return err
}

// Gauge is an integer metric that can go up and down; SetMax gives it
// high-water-mark semantics for peaks.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger — the high-water-mark update
// used for peak node counts.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) write(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, g.v.Load())
	return err
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket is always present.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus the +Inf overflow at the end
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) write(w io.Writer, name, labels string) error {
	// The text format renders cumulative bucket counts with an `le` label
	// appended to any family labels.
	joiner := "{"
	base := ""
	if labels != "" {
		base = strings.TrimSuffix(labels, "}")
		joiner = ","
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s%sle=%q} %d\n", name, base, joiner, le, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s%sle=\"+Inf\"} %d\n", name, base, joiner, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
	return err
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil, nil)
	return f.get(nil, func() metric { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil, nil)
	return f.get(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns) an unlabeled histogram with the given
// ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, "histogram", nil, buckets)
	return f.get(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, "counter", labels, nil)}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, "gauge", labels, nil)}
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, "histogram", labels, buckets)}
}

// With returns the series for the label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() metric { return &Counter{} }).(*Counter)
}

// With returns the series for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() metric { return &Gauge{} }).(*Gauge)
}

// With returns the series for the label values, creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels builds the {k="v",...} block for one series key.
func renderLabels(names []string, key string) string {
	if len(names) == 0 {
		return ""
	}
	values := strings.Split(key, "\x1f")
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]metric, 0, len(keys))
		labels := make([]string, 0, len(keys))
		for _, k := range keys {
			series = append(series, f.series[k])
			labels = append(labels, renderLabels(f.labels, k))
		}
		f.mu.RUnlock()
		for i, m := range series {
			if err := m.write(w, f.name, labels[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
