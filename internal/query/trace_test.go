package query

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
	"tempagg/internal/workload"
)

// traceQuery runs one traced query over the Employed fixture file and
// returns the closed trace plus the observer for metric assertions.
func traceQuery(t *testing.T, sql string) (*obs.QueryTrace, *obs.Observer, *QueryResult) {
	t.Helper()
	path := writeRelation(t, relation.Employed())
	o := obs.NewObserver(8, nil)
	tr := o.StartQuery(sql)
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := ExecuteFileTraced(q, path, nil, relation.ScanOptions{}, tr)
	o.FinishQuery(tr, err)
	if err != nil {
		t.Fatal(err)
	}
	return tr, o, qr
}

func TestExecuteFileTracedRecordsPlanSpansAndStats(t *testing.T) {
	tr, o, qr := traceQuery(t, "SELECT COUNT(Name) FROM Employed")

	if tr.Algorithm == "" || tr.Plan == "" {
		t.Errorf("trace missing plan: %+v", tr)
	}
	spans := map[string]bool{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"plan", "execute", "finish"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (have %v)", want, tr.Spans)
		}
	}
	if tr.Duration <= 0 || tr.Groups != 1 {
		t.Errorf("trace = %+v", tr)
	}

	// The trace's stats snapshot must equal the stats the executor returned.
	want := qr.Groups[0].Stats
	if tr.Stats.Tuples != want.Tuples || tr.Stats.PeakNodes != want.PeakNodes ||
		tr.Stats.LiveNodes != want.LiveNodes || tr.Stats.Collected != want.Collected {
		t.Errorf("trace stats %+v, executor stats %+v", tr.Stats, want)
	}

	// And the sink counters must agree with the same run.
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	alg := tr.Algorithm
	reg := o.Registry()
	tuples := reg.CounterVec(obs.MetricTuplesProcessed, "", "algorithm").With(alg).Value()
	if tuples != int64(want.Tuples) {
		t.Errorf("tuples metric = %d, stats = %d\n%s", tuples, want.Tuples, b.String())
	}
	alloc := reg.CounterVec(obs.MetricNodesAllocated, "", "algorithm").With(alg).Value()
	if alloc != int64(want.LiveNodes+want.Collected) {
		t.Errorf("alloc metric = %d, stats live+collected = %d", alloc, want.LiveNodes+want.Collected)
	}
}

func TestTracedTumaCountsTwoPasses(t *testing.T) {
	tr, o, _ := traceQuery(t, "SELECT COUNT(Name) FROM Employed USING TUMA")
	if tr.Algorithm != "tuma-two-pass" {
		t.Fatalf("algorithm = %q", tr.Algorithm)
	}
	n := relation.Employed().Len()
	got := o.Registry().CounterVec(obs.MetricTuplesProcessed, "", "algorithm").
		With("tuma-two-pass").Value()
	if got != int64(2*n) {
		t.Errorf("tuma tuples metric = %d, want %d (two scans)", got, 2*n)
	}
}

func TestTracedMaterializedFallback(t *testing.T) {
	// DISTINCT buffers its group's filtered tuples instead of streaming
	// them; the trace must still carry plan and stats.
	tr, _, qr := traceQuery(t, "SELECT COUNT(DISTINCT Name) FROM Employed")
	if tr.Algorithm == "" {
		t.Errorf("fallback trace missing algorithm: %+v", tr)
	}
	if tr.Stats.Tuples != qr.Groups[0].Stats.Tuples {
		t.Errorf("trace tuples = %d, executor = %d", tr.Stats.Tuples, qr.Groups[0].Stats.Tuples)
	}
}

func TestNilTraceExecutesIdentically(t *testing.T) {
	path := writeRelation(t, relation.Employed())
	q := mustParse(t, "SELECT COUNT(Name) FROM Employed")
	plain, err := ExecuteFile(q, path, nil, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ExecuteFileTraced(q, path, nil, relation.ScanOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() {
		t.Errorf("results differ:\n%s\nvs\n%s", plain, traced)
	}
}

// TestFileTraceOnePlanSpan: a file query plans once and reads the relation
// inside its execute stage — nothing sits between plan and execute, where
// the whole-file decode of a materializing detour would fall.
func TestFileTraceOnePlanSpan(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM Employed AT 10",
		"SELECT COUNT(DISTINCT Name) FROM Employed VALID OVERLAPS 5 25",
		"SELECT Name, COUNT(Name) FROM Employed GROUP BY Name USING TUMA",
	} {
		tr, _, _ := traceQuery(t, sql)
		if got := topSpans(tr); got != "plan execute finish" {
			t.Errorf("%s: top-level spans [%s], want [plan execute finish]", sql, got)
		}
	}
}

// TestExplainFileReadsNoTuple: EXPLAIN over a file plans from the header
// alone, AT and DISTINCT included — a corrupt record goes unread, and the
// trace holds one plan span and no execute span.
func TestExplainFileReadsNoTuple(t *testing.T) {
	path := writeRelation(t, relation.Employed())
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first record's interval becomes [100, 5], which fails to decode.
	bad := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 100), 5)
	if _, err := f.WriteAt(bad, relation.HeaderSize+tuple.NameLen+4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFile("SELECT COUNT(Name) FROM Employed AT 10", path, nil, relation.ScanOptions{}); err == nil {
		t.Fatal("a query over the corrupt file must fail")
	}
	for _, sql := range []string{
		"EXPLAIN SELECT COUNT(Name) FROM Employed AT 10",
		"EXPLAIN SELECT COUNT(DISTINCT Name) FROM Employed",
	} {
		tr := obs.NewQueryTrace(sql)
		qr, err := ExecuteFileTraced(mustParse(t, sql), path, nil, relation.ScanOptions{}, tr)
		if err != nil {
			t.Fatalf("%s read the relation: %v", sql, err)
		}
		if got := topSpans(tr); got != "plan" {
			t.Errorf("%s: top-level spans [%s], want [plan]", sql, got)
		}
		if qr.Explain == "" || len(qr.Groups) != 0 {
			t.Errorf("%s: explain %q, %d groups", sql, qr.Explain, len(qr.Groups))
		}
	}
}

// TestSpanQueryNeverSorts: span grouping never runs the plan's evaluator,
// so neither a k-ordered tree over an unsorted file nor a sort-first plan
// makes it sort the relation.
func TestSpanQueryNeverSorts(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 600, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	budget := &RelationInfo{Tuples: rel.Len(), KBound: -1, MemoryBudget: 1024}
	for _, c := range []struct {
		sql  string
		info *RelationInfo
	}{
		{"SELECT COUNT(Name) FROM R GROUP BY SPAN 100000 USING KTREE 1", nil},
		{"SELECT SUM(Salary) FROM R GROUP BY SPAN 100000", budget},
	} {
		q := mustParse(t, c.sql)
		if c.info != nil {
			if plan, err := PlanQuery(q, *c.info); err != nil || !plan.SortFirst {
				t.Fatalf("%s: plan %v (%v), want sort-first", c.sql, plan, err)
			}
		}
		for route, run := range map[string]func(*obs.QueryTrace) error{
			"memory": func(tr *obs.QueryTrace) error { _, err := ExecuteTraced(q, rel, c.info, tr); return err },
			"file": func(tr *obs.QueryTrace) error {
				_, err := ExecuteFileTraced(q, path, c.info, relation.ScanOptions{}, tr)
				return err
			},
		} {
			tr := obs.NewQueryTrace(c.sql)
			if err := run(tr); err != nil {
				t.Fatalf("%s (%s): %v", c.sql, route, err)
			}
			if hasSpan(tr.SpanTree(), "sort") {
				t.Errorf("%s (%s) sorted the relation", c.sql, route)
			}
		}
	}
}

// hasSpan reports whether a span of the given name is anywhere in spans.
func hasSpan(spans []*obs.Span, name string) bool {
	for _, sp := range spans {
		if sp.Name == name || hasSpan(sp.Children, name) {
			return true
		}
	}
	return false
}

// topSpans names a trace's top-level spans in order.
func topSpans(tr *obs.QueryTrace) string {
	var names []string
	for _, sp := range tr.SpanTree() {
		names = append(names, sp.Name)
	}
	return strings.Join(names, " ")
}
