package core

import (
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
)

// sumWorkerLiveNodes walks one scan span and totals the §6 node counts its
// scan-worker children recorded, returning the worker count alongside.
func sumWorkerLiveNodes(t *testing.T, scan *obs.Span) (workers, nodes int) {
	t.Helper()
	for _, w := range scan.Children {
		if w.Name != "scan-worker" {
			continue
		}
		workers++
		if w.Counters == nil {
			t.Fatalf("scan-worker %q carries no counter snapshot", w.Attrs["worker"])
		}
		nodes += w.Counters.LiveNodes
	}
	return workers, nodes
}

// TestTracedParallelSweepSpanTree pins the acceptance identity of the trace
// tree: a traced Parallel=2 sweep must record two radix-sort spans, a
// chunked scan span with one scan-worker child per chunk, and the workers'
// LiveNodes counters must sum to the query-level §6 node total exactly —
// chunks partition the event columns and each event is one node, so nothing
// may be dropped or double-counted at chunk boundaries.
func TestTracedParallelSweepSpanTree(t *testing.T) {
	ts := raceTuples(4200) // distinct starts, finite ends: 8400 events
	// Reverse the ingest order so both event columns need their radix sorts
	// (sorted input skips them, and with them their spans).
	for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
		ts[i], ts[j] = ts[j], ts[i]
	}
	tr := obs.NewQueryTrace("traced parallel sweep")

	ev := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Parallel: 2, Trace: tr.Context()})
	if err := ev.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Finish(); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()

	var scan *obs.Span
	radix := 0
	for _, sp := range tr.SpanTree() {
		switch sp.Name {
		case "radix-sort":
			radix++
		case "scan":
			scan = sp
		}
	}
	if radix != 2 { // arrivals column + departures column
		t.Errorf("radix-sort spans = %d, want 2", radix)
	}
	if scan == nil {
		t.Fatal("no scan span recorded")
	}
	if got := scan.Attrs["mode"]; got != "chunked" {
		t.Errorf("scan mode = %q, want chunked", got)
	}
	workers, nodes := sumWorkerLiveNodes(t, scan)
	if workers != 2 {
		t.Errorf("scan-worker spans = %d, want 2", workers)
	}
	if nodes != st.LiveNodes {
		t.Errorf("worker span node sum = %d, query LiveNodes = %d; per-worker counters must partition the query total", nodes, st.LiveNodes)
	}
	if nodes != 2*len(ts) {
		t.Errorf("worker span node sum = %d, want %d (two events per tuple)", nodes, 2*len(ts))
	}
	if scan.Duration <= 0 {
		t.Errorf("scan span duration not stamped: %v", scan.Duration)
	}
}

// TestTracedPartitionShardSpans: a traced partitioned evaluation records one
// shard span per partition, each tagged with its index and covered span and
// carrying the shard's own counter snapshot; sweep shards nest their sort
// and scan children underneath.
func TestTracedPartitionShardSpans(t *testing.T) {
	ts := raceTuples(2000)
	tr := obs.NewQueryTrace("traced partition")

	res, _, err := EvaluatePartitionedTuples(aggregate.For(aggregate.Count), ts,
		PartitionOptions{
			Boundaries: UniformBoundaries(interval.MustNew(0, 2010), 4),
			Sweep:      true,
			Trace:      tr.Context(),
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}

	shards := 0
	for _, sp := range tr.SpanTree() {
		if sp.Name != "shard" {
			continue
		}
		shards++
		if sp.Attrs["partition"] == "" || !strings.HasPrefix(sp.Attrs["span"], "[") {
			t.Errorf("shard span missing partition/span attrs: %v", sp.Attrs)
		}
		if sp.Counters == nil || sp.Counters.Tuples == 0 {
			t.Errorf("shard span %v carries no counter snapshot", sp.Attrs)
		}
		nested := false
		for _, c := range sp.Children {
			if c.Name == "radix-sort" || c.Name == "scan" {
				nested = true
			}
		}
		if !nested {
			t.Errorf("shard %v has no nested sweep spans", sp.Attrs["partition"])
		}
	}
	if shards != 4 {
		t.Errorf("shard spans = %d, want 4", shards)
	}
}

// TestZeroTraceContextIsFree: evaluators run with a zero TraceContext must
// record nothing and behave identically to an untraced run — the disabled
// path is a pointer compare, never an allocation.
func TestZeroTraceContextIsFree(t *testing.T) {
	ts := raceTuples(1000)
	ev := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Parallel: 2})
	if err := ev.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewQueryTrace("traced twin")
	ev2 := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Parallel: 2, Trace: tr.Context()})
	if err := ev2.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	res2, err := ev2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(res2.Rows) {
		t.Fatalf("traced run changed results: %d rows vs %d", len(res.Rows), len(res2.Rows))
	}
}

// TestWorkerHistogramExactScrape is the exact-value scrape contract for the
// worker-count histogram that replaced the last-write-wins gauge: three runs
// at 2, 4, and 4 workers must land one observation in the le=2 bucket and
// two more by le=4, with sum 10 and count 3 — values a gauge could never
// report once scans overlap.
func TestWorkerHistogramExactScrape(t *testing.T) {
	ts := raceTuples(4200)
	m := obs.NewMetrics(obs.NewRegistry())

	for _, workers := range []int{2, 4, 4} {
		ev, err := NewObserved(Spec{Algorithm: SweepEval, Parallel: workers}, aggregate.For(aggregate.Count), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.AddBatch(ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for series, want := range map[string]string{
		obs.MetricSweepWorkers + `_bucket{algorithm="sweep",le="1"}`:    "0",
		obs.MetricSweepWorkers + `_bucket{algorithm="sweep",le="2"}`:    "1",
		obs.MetricSweepWorkers + `_bucket{algorithm="sweep",le="4"}`:    "3",
		obs.MetricSweepWorkers + `_bucket{algorithm="sweep",le="+Inf"}`: "3",
		obs.MetricSweepWorkers + `_sum{algorithm="sweep"}`:              "10",
		obs.MetricSweepWorkers + `_count{algorithm="sweep"}`:            "3",
	} {
		line := series + " " + want
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}
