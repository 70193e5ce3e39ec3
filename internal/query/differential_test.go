package query

import (
	"fmt"
	"testing"

	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// queryCorpus is a broad set of valid queries over a relation named R with
// a finite lifespan.
var queryCorpus = []string{
	"SELECT COUNT(Name) FROM R",
	"SELECT SUM(Salary) FROM R",
	"SELECT AVG(Salary) FROM R",
	"SELECT MIN(Salary) FROM R",
	"SELECT MAX(Salary) FROM R",
	"SELECT COUNT(Name), AVG(Salary) FROM R",
	"SELECT COUNT(DISTINCT Name) FROM R",
	"SELECT Name, COUNT(Name) FROM R GROUP BY Name",
	"SELECT Name, MAX(Salary), MIN(Salary) FROM R GROUP BY Name",
	"SELECT COUNT(Name) FROM R WHERE Salary > 50000",
	"SELECT COUNT(Name) FROM R WHERE Salary <= 50000 AND Start >= 100000",
	"SELECT COUNT(Name) FROM R WHERE Name <> 'p00001'",
	"SELECT SUM(Salary) FROM R VALID OVERLAPS 100000 900000",
	"SELECT COUNT(Name) FROM R VALID OVERLAPS 0 499999 WHERE Salary > 40000",
	"SELECT AVG(Salary) FROM R AT 500000",
	"SELECT Name, COUNT(Name) FROM R AT 500000 GROUP BY Name",
	"SELECT COUNT(Name) FROM R GROUP BY SPAN 100000",
	"SELECT SUM(Salary) FROM R VALID OVERLAPS 0 999999 GROUP BY SPAN 250000",
	"SELECT COUNT(Name) FROM R USING LIST",
	"SELECT COUNT(Name) FROM R USING TREE",
	"SELECT COUNT(Name) FROM R USING BTREE",
	"SELECT COUNT(Name) FROM R USING KTREE 1",
	"SELECT COUNT(Name) FROM R USING KTREE 4096",
	"SELECT COUNT(Name) FROM R USING TUMA",
	"SELECT SUM(Salary) FROM R USING SWEEP",
	"SELECT MIN(Salary) FROM R USING SWEEP",
	"SELECT Name, AVG(Salary) FROM R GROUP BY Name USING SWEEP",
	"SELECT Name, AVG(Salary) FROM R WHERE Salary > 30000 GROUP BY Name USING LIST",
	// Shapes the file route once answered by materializing the relation.
	"SELECT AVG(Salary) FROM R AT 500000 WHERE Salary > 40000",
	"SELECT Name, MIN(Salary) FROM R AT 250000 WHERE Salary <= 60000 GROUP BY Name",
	"SELECT MAX(Salary), COUNT(DISTINCT Name) FROM R AT 500000 WHERE Salary > 30000",
	"SELECT COUNT(DISTINCT Name) FROM R VALID OVERLAPS 100000 600000",
	"SELECT SUM(Salary) FROM R USING PARTITIONED 4",
	"SELECT SUM(Salary), MAX(Salary) FROM R VALID OVERLAPS 100000 900000 USING INDEX",
	"SELECT COUNT(Name) FROM R WHERE Salary > 999999999",
	// Span grouping takes no evaluator, whatever the USING clause names.
	"SELECT COUNT(Name) FROM R GROUP BY SPAN 100000 USING TUMA",
	"SELECT SUM(Salary) FROM R VALID OVERLAPS 0 999999 GROUP BY SPAN 250000 USING TUMA",
	"SELECT COUNT(Name) FROM R GROUP BY SPAN 100000 USING KTREE 1",
}

// TestDifferentialMemoryVsFile runs the whole corpus both in memory and
// streamed from disk, demanding value-identical results group by group.
func TestDifferentialMemoryVsFile(t *testing.T) {
	for _, order := range []workload.Order{workload.Random, workload.Sorted} {
		rel, err := workload.Generate(workload.Config{
			Tuples: 700, LongLivedPct: 30, Order: order, Seed: 55,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel.Name = "R"
		path := writeRelation(t, rel)
		for _, sql := range queryCorpus {
			t.Run(fmt.Sprintf("%s/%s", order, sql), func(t *testing.T) {
				mem, err := Run(sql, rel, nil)
				if err != nil {
					t.Fatalf("in-memory: %v", err)
				}
				file, err := RunFile(sql, path, nil, relation.ScanOptions{})
				if err != nil {
					t.Fatalf("file: %v", err)
				}
				if len(mem.Groups) != len(file.Groups) {
					t.Fatalf("group counts: %d vs %d", len(mem.Groups), len(file.Groups))
				}
				for gi := range mem.Groups {
					if mem.Groups[gi].Key != file.Groups[gi].Key {
						t.Fatalf("group %d keys differ: %q vs %q",
							gi, mem.Groups[gi].Key, file.Groups[gi].Key)
					}
					if len(mem.Groups[gi].Results) != len(file.Groups[gi].Results) {
						t.Fatalf("result counts differ in group %q", mem.Groups[gi].Key)
					}
					for ri := range mem.Groups[gi].Results {
						a := mem.Groups[gi].Results[ri]
						b := file.Groups[gi].Results[ri]
						if !a.Equal(b) {
							t.Fatalf("group %q result %d differs:\n%s\nvs\n%s",
								mem.Groups[gi].Key, ri, a, b)
						}
					}
				}
			})
		}
	}
}

// TestSpanGroupingIgnoresStrategy: a span-grouped query's rows do not
// depend on the USING clause, on either route — Tuma and the k-ordered tree
// give exactly the span rows USING LIST gives.
func TestSpanGroupingIgnoresStrategy(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 700, LongLivedPct: 30, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	for _, base := range []string{
		"SELECT COUNT(Name) FROM R GROUP BY SPAN 100000",
		"SELECT SUM(Salary), MAX(Salary) FROM R VALID OVERLAPS 0 999999 GROUP BY SPAN 250000",
	} {
		want, err := Run(base+" USING LIST", rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, using := range []string{" USING TUMA", " USING KTREE 1"} {
			sql := base + using
			mem, err := Run(sql, rel, nil)
			if err != nil {
				t.Fatalf("%s in memory: %v", sql, err)
			}
			file, err := RunFile(sql, path, nil, relation.ScanOptions{})
			if err != nil {
				t.Fatalf("%s from file: %v", sql, err)
			}
			for _, got := range []*QueryResult{mem, file} {
				if len(got.Groups) != 1 || len(got.Groups[0].Results) != len(want.Groups[0].Results) {
					t.Fatalf("%s: %d groups, want 1 with %d results", sql, len(got.Groups), len(want.Groups[0].Results))
				}
				for ri, res := range got.Groups[0].Results {
					if !res.Equal(want.Groups[0].Results[ri]) {
						t.Fatalf("%s result %d differs from USING LIST:\n%s\nvs\n%s", sql, ri, res, want.Groups[0].Results[ri])
					}
				}
			}
		}
	}
}

// TestDifferentialRandomizedScan repeats the instant-grouped corpus entries
// under a page-randomized scan, which must not change any result.
func TestDifferentialRandomizedScan(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 600, Order: workload.Sorted, Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM R",
		"SELECT AVG(Salary) FROM R WHERE Salary > 50000",
		"SELECT Name, MAX(Salary) FROM R GROUP BY Name",
	} {
		mem, err := Run(sql, rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		file, err := RunFile(sql, path, nil, relation.ScanOptions{RandomizePages: true, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for gi := range mem.Groups {
			if !mem.Groups[gi].Result.Equal(file.Groups[gi].Result) {
				t.Fatalf("%s: randomized scan changed group %q", sql, mem.Groups[gi].Key)
			}
		}
	}
}

// TestUsingIndexMatchesEvaluator: an index built over the window-filtered
// relation answers window, instant and whole-timeline queries with exactly
// the evaluators' rows.
func TestUsingIndexMatchesEvaluator(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 700, LongLivedPct: 30, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	for _, agg := range []string{"COUNT(Name)", "SUM(Salary)", "AVG(Salary)", "MIN(Salary)", "MAX(Salary)"} {
		for _, clause := range []string{"", " VALID OVERLAPS 100000 600000", " AT 500000"} {
			sql := "SELECT " + agg + " FROM R" + clause
			want, err := Run(sql, rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(sql+" USING INDEX", rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Plan.UseIndex {
				t.Fatalf("%s USING INDEX planned %v", sql, got.Plan)
			}
			if !got.Groups[0].Result.Equal(want.Groups[0].Result) {
				t.Errorf("%s: index rows differ from the evaluator's:\n%s\nvs\n%s",
					sql, got.Groups[0].Result, want.Groups[0].Result)
			}
		}
	}
}
