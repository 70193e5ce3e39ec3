package query

import (
	"path/filepath"
	"testing"

	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

func writeRelation(t *testing.T, rel *relation.Relation) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.rel")
	if err := relation.WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	return path
}

func runFile(t *testing.T, sql, path string) *QueryResult {
	t.Helper()
	qr, err := RunFile(sql, path, nil, relation.ScanOptions{})
	if err != nil {
		t.Fatalf("RunFile(%q): %v", sql, err)
	}
	return qr
}

func TestExecuteFileMatchesInMemory(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 600, LongLivedPct: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM R",
		"SELECT SUM(Salary) FROM R WHERE Salary > 50000",
		"SELECT AVG(Salary) FROM R VALID OVERLAPS 100000 500000",
		"SELECT MAX(Salary) FROM R USING TUMA",
		"SELECT MIN(Salary) FROM R USING LIST",
	} {
		mem, err := Run(sql, rel, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		file := runFile(t, sql, path)
		if len(mem.Groups) != len(file.Groups) {
			t.Fatalf("%s: group counts differ", sql)
		}
		for i := range mem.Groups {
			if !mem.Groups[i].Result.Equal(file.Groups[i].Result) {
				t.Errorf("%s: streamed result differs from in-memory", sql)
			}
		}
	}
}

func TestExecuteFileStreamsGroupBy(t *testing.T) {
	rel := relation.Employed()
	path := writeRelation(t, rel)
	qr := runFile(t, "SELECT Name, MAX(Salary) FROM Employed GROUP BY Name", path)
	if len(qr.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(qr.Groups))
	}
	if qr.Groups[0].Key != "Karen" {
		t.Fatalf("groups not sorted: %q first", qr.Groups[0].Key)
	}
	if v, ok := qr.Groups[1].Result.At(20); !ok || v.Int != 37 {
		t.Fatalf("Nathan MAX at 20 = %v", v)
	}
}

func TestExecuteFileUsesHeaderSortedFlag(t *testing.T) {
	rel := relation.Employed()
	rel.SortByTime()
	path := writeRelation(t, rel)
	qr := runFile(t, "SELECT COUNT(Name) FROM Employed", path)
	if qr.Plan.Spec.K != 1 || qr.Plan.SortFirst {
		t.Fatalf("sorted file should stream ktree k=1, got %v", qr.Plan)
	}
}

func TestExecuteFileRandomizedPagesNotSorted(t *testing.T) {
	// Enough tuples for multiple pages so randomization matters.
	rel, err := workload.Generate(workload.Config{Tuples: 500, Order: workload.Sorted, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	qr, err := RunFile("SELECT COUNT(Name) FROM R", path, nil,
		relation.ScanOptions{RandomizePages: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A randomized scan must not be planned as sorted input.
	if qr.Plan.Spec.Algorithm == 0 && qr.Plan.Spec.K == 1 && !qr.Plan.SortFirst {
		t.Fatalf("randomized scan planned as sorted: %v", qr.Plan)
	}
	mem, err := Run("SELECT COUNT(Name) FROM R", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Groups[0].Result.Equal(mem.Groups[0].Result) {
		t.Fatal("randomized scan changed the result")
	}
}

func TestExecuteFileTumaTwoScans(t *testing.T) {
	rel := relation.Employed()
	path := writeRelation(t, rel)
	sc, err := relation.Open(path, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	q := mustParse(t, "SELECT COUNT(Name) FROM Employed USING TUMA")
	meta := RelationInfo{Tuples: sc.Count(), KBound: -1}
	if _, err := executeSource(q, fileSource{Scanner: sc, path: path}, meta, nil); err != nil {
		t.Fatal(err)
	}
	if sc.Passes() != 2 {
		t.Fatalf("Tuma streamed %d passes, want 2", sc.Passes())
	}
}

func TestExecuteFileMaterializesWhenNeeded(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	// Ensure a finite lifespan so span grouping works.
	path := writeRelation(t, rel)
	qr := runFile(t, "SELECT COUNT(Name) FROM R GROUP BY SPAN 100000", path)
	if err := qr.Groups[0].Result.ValidatePartition(0, qr.Groups[0].Result.Rows[len(qr.Groups[0].Result.Rows)-1].Interval.End); err != nil {
		t.Fatal(err)
	}

	// DISTINCT buffers each group's filtered tuples but must still work.
	qr = runFile(t, "SELECT COUNT(DISTINCT Name) FROM R", path)
	if err := qr.Groups[0].Result.Validate(); err != nil {
		t.Fatal(err)
	}

	// Tuma + GROUP BY buffers each group and runs Tuma over it.
	qr = runFile(t, "SELECT Name, COUNT(Name) FROM R GROUP BY Name USING TUMA", path)
	if len(qr.Groups) == 0 {
		t.Fatal("no groups")
	}
}

func TestExecuteFileEmptyFilteredStream(t *testing.T) {
	rel := relation.Employed()
	path := writeRelation(t, rel)
	qr := runFile(t, "SELECT COUNT(Name) FROM Employed WHERE Salary > 1000000", path)
	if len(qr.Groups) != 1 || len(qr.Groups[0].Result.Rows) != 1 {
		t.Fatalf("filtered-out stream: %+v", qr.Groups)
	}
	if v := qr.Groups[0].Result.Value(0); v.Int != 0 {
		t.Fatalf("count = %v, want 0", v)
	}
}

func TestExecuteFileErrors(t *testing.T) {
	if _, err := RunFile("SELECT COUNT(Name) FROM x", "/nonexistent.rel", nil,
		relation.ScanOptions{}); err == nil {
		t.Fatal("missing file must fail")
	}
	path := writeRelation(t, relation.Employed())
	if _, err := RunFile("SELEC", path, nil, relation.ScanOptions{}); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestExecuteFileSortFirstUsesExternalSort(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 800, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	// A tight memory budget forces the sort+ktree plan; execution must
	// still work end to end from the file and match in-memory results.
	info := &RelationInfo{Tuples: rel.Len(), Sorted: false, KBound: -1, MemoryBudget: 1024}
	qr, err := RunFile("SELECT SUM(Salary) FROM R", path, info, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Plan.SortFirst && qr.Plan.Spec.K != 1 {
		t.Fatalf("expected a sort+ktree plan, got %v", qr.Plan)
	}
	mem, err := Run("SELECT SUM(Salary) FROM R", rel, info)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Groups[0].Result.Equal(mem.Groups[0].Result) {
		t.Fatal("sort-first streaming differs from in-memory")
	}
	// The streamed evaluator's memory stayed tiny — the point of the plan.
	if qr.Groups[0].Stats.PeakBytes() > 64*1024 {
		t.Fatalf("peak memory %d exceeds the plan's point", qr.Groups[0].Stats.PeakBytes())
	}
}

func TestExecuteFileUsingKtree1OnUnsortedFile(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 500, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	path := writeRelation(t, rel)
	qr, err := RunFile("SELECT COUNT(Name) FROM R USING KTREE 1", path, nil, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run("SELECT COUNT(Name) FROM R USING KTREE 1", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Groups[0].Result.Equal(mem.Groups[0].Result) {
		t.Fatal("USING KTREE 1 on unsorted file differs from in-memory")
	}
}
