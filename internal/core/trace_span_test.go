package core

import (
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/interval"
	"tempagg/internal/obs"
)

// TestTracedSweepSpanTree pins the acceptance identity of the trace tree:
// a traced sweep over reversed input must record two radix-sort spans and
// one serial scan span whose LiveNodes counter equals the query-level §6
// node total, two events per tuple.
func TestTracedSweepSpanTree(t *testing.T) {
	ts := raceTuples(4200) // distinct starts, finite ends: 8400 events
	// Reverse the ingest order so both event columns need their radix sorts
	// (sorted input skips them, and with them their spans).
	for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
		ts[i], ts[j] = ts[j], ts[i]
	}
	tr := obs.NewQueryTrace("traced sweep")

	ev := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Trace: tr.Context()})
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
	if got := scan.Attrs["mode"]; got != "serial" {
		t.Errorf("scan mode = %q, want serial", got)
	}
	if scan.Counters == nil {
		t.Fatal("scan span carries no counter snapshot")
	}
	if nodes := scan.Counters.LiveNodes; nodes != st.LiveNodes || nodes != 2*len(ts) {
		t.Errorf("scan span nodes = %d, query LiveNodes = %d, want both %d (two events per tuple)", nodes, st.LiveNodes, 2*len(ts))
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
	ev := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{})
	if err := ev.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewQueryTrace("traced twin")
	ev2 := NewSweepOptions(aggregate.For(aggregate.Count), SweepOptions{Trace: tr.Context()})
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
