package query

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

func TestParseMultipleAggregates(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(Name), AVG(Salary), MAX(Salary) FROM Employed")
	if len(q.Aggs) != 3 {
		t.Fatalf("%d aggregates, want 3", len(q.Aggs))
	}
	want := []aggregate.Kind{aggregate.Count, aggregate.Avg, aggregate.Max}
	for i, k := range want {
		if q.Aggs[i].Kind != k {
			t.Fatalf("agg %d = %v, want %v", i, q.Aggs[i].Kind, k)
		}
	}
}

func TestParseGroupAttrPlusMultipleAggregates(t *testing.T) {
	q := mustParse(t, "SELECT Name, COUNT(Name), MIN(Salary) FROM Employed GROUP BY Name")
	if q.GroupAttr == nil || *q.GroupAttr != AttrName {
		t.Fatal("group attribute lost")
	}
	if len(q.Aggs) != 2 {
		t.Fatalf("%d aggregates, want 2", len(q.Aggs))
	}
}

func TestMultiAggStringRoundTrip(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(Name), AVG(Salary) FROM R",
		"SELECT Name, COUNT(DISTINCT Name), SUM(Salary) FROM R GROUP BY Name",
	} {
		q := mustParse(t, sql)
		again := mustParse(t, q.String())
		if q.String() != again.String() {
			t.Errorf("round trip changed %q -> %q", q.String(), again.String())
		}
	}
}

func TestExecuteMultipleAggregates(t *testing.T) {
	rel := relation.Employed()
	qr := execute(t, "SELECT COUNT(Name), SUM(Salary), MIN(Salary) FROM Employed", rel)
	g := qr.Groups[0]
	if len(g.Results) != 3 {
		t.Fatalf("%d results, want 3", len(g.Results))
	}
	if g.Result != g.Results[0] {
		t.Fatal("Result must alias Results[0]")
	}
	// All three share the same constant intervals ([18,20] is the third-
	// from-last row), with each aggregate's value.
	count, sum, minimum := g.Results[0], g.Results[1], g.Results[2]
	if v, _ := count.At(19); v.Int != 3 {
		t.Errorf("COUNT at 19 = %v, want 3", v)
	}
	if v, _ := sum.At(19); v.Int != 40+45+37 {
		t.Errorf("SUM at 19 = %v, want 122", v)
	}
	if v, _ := minimum.At(19); v.Int != 37 {
		t.Errorf("MIN at 19 = %v, want 37", v)
	}
	// Output renders one table per aggregate.
	out := qr.String()
	for _, hdr := range []string{"COUNT | start | end", "SUM | start | end", "MIN | start | end"} {
		if !strings.Contains(out, hdr) {
			t.Errorf("output missing %q", hdr)
		}
	}
}

func TestExecuteMultiAggMixedDistinct(t *testing.T) {
	rel := relation.FromTuples("R", append(relation.Employed().Tuples,
		relation.Employed().Tuples[0])) // duplicate Rich
	qr := execute(t, "SELECT COUNT(Name), COUNT(DISTINCT Name) FROM R", rel)
	g := qr.Groups[0]
	plain, distinct := g.Results[0], g.Results[1]
	if v, _ := plain.At(19); v.Int != 4 {
		t.Errorf("COUNT at 19 = %v, want 4 (duplicate Rich counted)", v)
	}
	if v, _ := distinct.At(19); v.Int != 3 {
		t.Errorf("COUNT(DISTINCT) at 19 = %v, want 3", v)
	}
}

func TestExecuteFileMultipleAggregatesStream(t *testing.T) {
	rel := relation.Employed()
	path := writeRelation(t, rel)
	qr := runFile(t, "SELECT COUNT(Name), MAX(Salary) FROM Employed", path)
	g := qr.Groups[0]
	if len(g.Results) != 2 {
		t.Fatalf("%d results, want 2", len(g.Results))
	}
	if v, _ := g.Results[1].At(19); v.Int != 45 {
		t.Errorf("streamed MAX at 19 = %v, want 45", v)
	}
}

func TestExecuteMultiAggSpan(t *testing.T) {
	rel := relation.FromTuples("R", relation.Employed().Tuples[1:3])
	qr := execute(t, "SELECT COUNT(Name), SUM(Salary) FROM R GROUP BY SPAN 10", rel)
	g := qr.Groups[0]
	if len(g.Results) != 2 {
		t.Fatalf("%d results, want 2", len(g.Results))
	}
	if g.Results[0].Value(0).Int != 2 || g.Results[1].Value(0).Int != 80 {
		t.Fatalf("span values = %v, %v", g.Results[0].Value(0), g.Results[1].Value(0))
	}
}

func TestQueryResultMarshalJSON(t *testing.T) {
	qr := execute(t, "SELECT Name, COUNT(Name) FROM Employed GROUP BY Name",
		relation.Employed())
	data, err := json.Marshal(qr)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"query":`, `"plan":`, `"key":"Karen"`, `"aggregate":"COUNT"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
}

// TestMultiAggregateMatchesSingle: a select list runs one evaluator per
// aggregate on every route — in memory, streamed from a file, per
// attribute group, under a window — so each aggregate's rows are
// identical to the rows of its own single-aggregate query, and each
// carries the counters of its own evaluator run.
func TestMultiAggregateMatchesSingle(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 600, LongLivedPct: 30, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	aggs := []string{"COUNT(Name)", "SUM(Salary)", "AVG(Salary)"}
	for _, tc := range []struct {
		name    string
		clauses string // everything after FROM R
		grouped bool
		file    bool
	}{
		{"in-memory", "", false, false},
		{"in-memory/where", " WHERE Salary > 40000", false, false},
		{"in-memory/window", " VALID OVERLAPS 100000 500000", false, false},
		{"group-by", " GROUP BY Name", true, false},
		{"group-by/window", " VALID OVERLAPS 100000 500000 GROUP BY Name", true, false},
		{"file", " USING SWEEP 2", false, true},
		{"file/group-by/window", " VALID OVERLAPS 100000 500000 GROUP BY Name", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sql string) *QueryResult {
				if tc.file {
					return runFile(t, sql, path)
				}
				return execute(t, sql, rel)
			}
			sel := "SELECT "
			if tc.grouped {
				sel += "Name, "
			}
			qr := run(sel + strings.Join(aggs, ", ") + " FROM R" + tc.clauses)
			if len(qr.Groups) == 0 {
				t.Fatal("no groups")
			}
			for ai, agg := range aggs {
				want := run(sel + agg + " FROM R" + tc.clauses)
				if len(qr.Groups) != len(want.Groups) {
					t.Fatalf("%s: %d groups, want %d", agg, len(qr.Groups), len(want.Groups))
				}
				for gi, g := range qr.Groups {
					w := want.Groups[gi]
					if g.Key != w.Key {
						t.Fatalf("%s: group %d is %q, want %q", agg, gi, g.Key, w.Key)
					}
					if !reflect.DeepEqual(g.Results[ai].Rows, w.Result.Rows) {
						t.Errorf("%s group %q: rows differ from the single-aggregate query", agg, g.Key)
					}
					if g.AllStats[ai].Tuples != w.Stats.Tuples {
						t.Errorf("%s group %q: %d tuples counted, single-aggregate query counted %d",
							agg, g.Key, g.AllStats[ai].Tuples, w.Stats.Tuples)
					}
				}
			}
		})
	}
}
