package query

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// explainGoldenCases covers every evaluator kind the planner can choose or
// the USING clause can force. Plain EXPLAIN output is deterministic — plan
// tree and estimated costs only, no timings — so it is golden-file testable.
var explainGoldenCases = []struct{ name, sql string }{
	{"default_count", "EXPLAIN SELECT COUNT(Salary) FROM Employed"},
	{"default_max", "EXPLAIN SELECT MAX(Salary) FROM Employed"},
	{"using_list", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING LIST"},
	{"using_tree", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING TREE"},
	{"using_btree", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING BTREE"},
	{"using_ktree", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING KTREE 4"},
	{"using_sweep", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING SWEEP"},
	{"using_tuma", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING TUMA"},
	{"using_partitioned", "EXPLAIN SELECT COUNT(Salary) FROM Employed USING PARTITIONED 4"},
	{"multi_agg_sweep", "EXPLAIN SELECT COUNT(Salary), SUM(Salary), AVG(Salary) FROM Employed"},
}

func TestExplainGolden(t *testing.T) {
	for _, tc := range explainGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			qr := execute(t, tc.sql, relation.Employed())
			if len(qr.Groups) != 0 {
				t.Errorf("EXPLAIN executed the query: %d groups", len(qr.Groups))
			}
			if qr.Explain == "" {
				t.Fatal("EXPLAIN produced no report")
			}
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(qr.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got := qr.String(); got != string(want) {
				t.Errorf("EXPLAIN output changed.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestExplainAnalyzeRowsIdentical is the differential contract: for every
// evaluator kind, EXPLAIN ANALYZE must return the plain query's aggregate
// rows bit for bit — the report is appended after them, never mixed in —
// and must actually carry a trace report.
func TestExplainAnalyzeRowsIdentical(t *testing.T) {
	rel := relation.Employed()
	for _, tc := range explainGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			plainSQL := strings.TrimPrefix(tc.sql, "EXPLAIN ")
			plain := execute(t, plainSQL, rel)
			analyzed := execute(t, "EXPLAIN ANALYZE "+plainSQL, rel)
			if len(analyzed.Groups) != len(plain.Groups) {
				t.Fatalf("ANALYZE groups = %d, plain = %d", len(analyzed.Groups), len(plain.Groups))
			}
			for i := range plain.Groups {
				if analyzed.Groups[i].Key != plain.Groups[i].Key {
					t.Errorf("group %d key differs", i)
				}
				for j, res := range plain.Groups[i].Results {
					if !reflect.DeepEqual(analyzed.Groups[i].Results[j].Rows, res.Rows) {
						t.Errorf("group %d aggregate %d: ANALYZE rows differ from plain rows", i, j)
					}
				}
			}
			for _, marker := range []string{"plan:", "trace:", "counters:"} {
				if !strings.Contains(analyzed.Explain, marker) {
					t.Errorf("ANALYZE report missing %q:\n%s", marker, analyzed.Explain)
				}
			}
			// The plain rendering is a strict prefix of the ANALYZE one.
			if plainStr, anaStr := plainRows(plain), plainRows(analyzed); plainStr != anaStr {
				t.Errorf("row rendering differs:\n%s\nvs\n%s", plainStr, anaStr)
			}
		})
	}
}

// plainRows renders only the result rows, excluding the query/plan header
// (which legitimately differs: one query says EXPLAIN ANALYZE) and report.
func plainRows(qr *QueryResult) string {
	var b strings.Builder
	for _, g := range qr.Groups {
		for _, res := range g.Results {
			b.WriteString(res.String())
		}
	}
	return b.String()
}

// TestExplainAnalyzeSweepAcceptance pins the headline identity on a
// 64K-event input: the sweep's scan span carries a §6 node count equal to
// the query-level LiveNodes counter, and the report shows the scan span and
// the estimated-vs-actual cost line.
func TestExplainAnalyzeSweepAcceptance(t *testing.T) {
	const n = 32768 // two events per tuple: 65536
	rel := relation.New("Big")
	for i := 0; i < n; i++ {
		// Descending starts so the radix sorts (and their spans) run.
		lo := int64(2*(n-i)) + 1
		rel.Append(tuple.MustNew(fmt.Sprintf("e%d", i%97), int64(i), lo, lo+1000))
	}
	q, err := Parse("EXPLAIN ANALYZE SELECT COUNT(Salary) FROM Big USING SWEEP")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewQueryTrace(q.String())
	qr, err := ExecuteTraced(q, rel, nil, tr)
	if err != nil {
		t.Fatal(err)
	}

	var scans []*obs.Span
	var visit func(sp *obs.Span)
	visit = func(sp *obs.Span) {
		if sp.Name == "scan" && sp.Counters != nil {
			scans = append(scans, sp)
		}
		for _, c := range sp.Children {
			visit(c)
		}
	}
	for _, sp := range tr.SpanTree() {
		visit(sp)
	}
	if len(scans) != 1 {
		t.Fatalf("scan spans = %d, want 1", len(scans))
	}
	if got := scans[0].Counters.LiveNodes; got != tr.Stats.LiveNodes || got != 2*n {
		t.Errorf("scan span nodes = %d, query LiveNodes = %d, want both %d", got, tr.Stats.LiveNodes, 2*n)
	}
	for _, marker := range []string{"scan[mode=serial]", "cost: estimated="} {
		if !strings.Contains(qr.Explain, marker) {
			t.Errorf("ANALYZE report missing %q:\n%s", marker, qr.Explain)
		}
	}
}

// TestParseExplain covers the statement forms and their canonical strings.
func TestParseExplain(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		mode ExplainMode
	}{
		{"SELECT COUNT(Salary) FROM emp", ExplainNone},
		{"EXPLAIN SELECT COUNT(Salary) FROM emp", ExplainPlan},
		{"explain analyze SELECT COUNT(Salary) FROM emp", ExplainAnalyze},
	} {
		q, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.sql, err)
		}
		if q.Explain != tc.mode {
			t.Errorf("Parse(%q).Explain = %d, want %d", tc.sql, q.Explain, tc.mode)
		}
		// The canonical string must reparse to the same mode.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q2.Explain != tc.mode {
			t.Errorf("reparse of %q lost the explain mode", q.String())
		}
	}
	if _, err := Parse("EXPLAIN"); err == nil {
		t.Error("bare EXPLAIN should not parse")
	}
	if _, err := Parse("ANALYZE SELECT COUNT(Salary) FROM emp"); err == nil {
		t.Error("ANALYZE without EXPLAIN should not parse")
	}
}
