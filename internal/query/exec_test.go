package query

import (
	"strings"
	"testing"

	"tempagg/internal/core"
	"tempagg/internal/interval"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

func execute(t *testing.T, sql string, rel *relation.Relation) *QueryResult {
	t.Helper()
	qr, err := Run(sql, rel, nil)
	if err != nil {
		t.Fatalf("Run(%q): %v", sql, err)
	}
	return qr
}

func TestExecutePaperQueryTable1(t *testing.T) {
	qr := execute(t, "SELECT COUNT(Name) FROM Employed", relation.Employed())
	if len(qr.Groups) != 1 {
		t.Fatalf("%d groups, want 1", len(qr.Groups))
	}
	res := qr.Groups[0].Result
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		count int64
		iv    interval.Interval
	}{
		{0, interval.MustNew(0, 6)},
		{1, interval.MustNew(7, 7)},
		{2, interval.MustNew(8, 12)},
		{1, interval.MustNew(13, 17)},
		{3, interval.MustNew(18, 20)},
		{2, interval.MustNew(21, 21)},
		{1, interval.MustNew(22, interval.Forever)},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(res.Rows), len(want), res)
	}
	for i, w := range want {
		if res.Rows[i].Interval != w.iv || res.Value(i).Int != w.count {
			t.Errorf("row %d = %v/%d, want %v/%d",
				i, res.Rows[i].Interval, res.Value(i).Int, w.iv, w.count)
		}
	}
}

func TestExecuteGroupByName(t *testing.T) {
	qr := execute(t, "SELECT Name, MAX(Salary) FROM Employed GROUP BY Name", relation.Employed())
	if len(qr.Groups) != 3 {
		t.Fatalf("%d groups, want 3 (Karen, Nathan, Rich)", len(qr.Groups))
	}
	if qr.Groups[0].Key != "Karen" || qr.Groups[1].Key != "Nathan" || qr.Groups[2].Key != "Rich" {
		t.Fatalf("group keys = %v %v %v", qr.Groups[0].Key, qr.Groups[1].Key, qr.Groups[2].Key)
	}
	// Nathan's salary changes from 35 to 37 across his two stints.
	nathan := qr.Groups[1].Result
	if v, ok := nathan.At(10); !ok || v.Int != 35 {
		t.Errorf("Nathan MAX at 10 = %v, want 35", v)
	}
	if v, ok := nathan.At(20); !ok || v.Int != 37 {
		t.Errorf("Nathan MAX at 20 = %v, want 37", v)
	}
	if v, ok := nathan.At(15); !ok || !v.Null {
		t.Errorf("Nathan MAX at 15 = %v, want null (unemployed [13,17])", v)
	}
}

func TestExecuteWhereFilter(t *testing.T) {
	qr := execute(t, "SELECT COUNT(Name) FROM Employed WHERE Salary > 36", relation.Employed())
	res := qr.Groups[0].Result
	// Only Rich (40), Karen (45), Nathan's 37 stint qualify.
	if v, _ := res.At(10); v.Int != 1 { // Karen only
		t.Errorf("count at 10 = %v, want 1", v)
	}
	if v, _ := res.At(19); v.Int != 3 {
		t.Errorf("count at 19 = %v, want 3", v)
	}
	qr = execute(t, "SELECT COUNT(Name) FROM Employed WHERE Name = 'Nathan'", relation.Employed())
	res = qr.Groups[0].Result
	if v, _ := res.At(10); v.Int != 1 {
		t.Errorf("Nathan count at 10 = %v, want 1", v)
	}
	if v, _ := res.At(30); v.Int != 0 {
		t.Errorf("Nathan count at 30 = %v, want 0", v)
	}
}

func TestExecuteWhereOperators(t *testing.T) {
	rel := relation.Employed()
	for sql, wantAt18 := range map[string]int64{
		"SELECT COUNT(Name) FROM Employed WHERE Salary < 40":  1, // Nathan 37 stint
		"SELECT COUNT(Name) FROM Employed WHERE Salary <= 40": 2, // + Rich
		"SELECT COUNT(Name) FROM Employed WHERE Salary <> 45": 2, // all but Karen
		"SELECT COUNT(Name) FROM Employed WHERE Stop >= 21":   2, // Rich, Nathan2
		"SELECT COUNT(Name) FROM Employed WHERE Start = 18":   2,
	} {
		qr := execute(t, sql, rel)
		if v, _ := qr.Groups[0].Result.At(18); v.Int != wantAt18 {
			t.Errorf("%s: count at 18 = %d, want %d", sql, v.Int, wantAt18)
		}
	}
}

func TestExecuteSpanGrouping(t *testing.T) {
	rel := relation.FromTuples("R", relation.Employed().Tuples[1:3]) // Karen [8,20], Nathan [7,12]
	qr := execute(t, "SELECT COUNT(Name) FROM R GROUP BY SPAN 10", rel)
	res := qr.Groups[0].Result
	if err := res.ValidatePartition(0, 29); err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 2, 1} // both overlap [0,9] and [10,19]; Karen reaches [20,29]
	for i, w := range want {
		if got := res.Value(i).Int; got != w {
			t.Errorf("span %d count = %d, want %d", i, got, w)
		}
	}
}

func TestExecuteSpanRejectsOpenEnded(t *testing.T) {
	if _, err := Run("SELECT COUNT(Name) FROM Employed GROUP BY SPAN 10",
		relation.Employed(), nil); err == nil {
		t.Fatal("span grouping over an open-ended tuple must fail")
	}
}

func TestExecuteUsingEachAlgorithm(t *testing.T) {
	rel := relation.Employed()
	base := execute(t, "SELECT SUM(Salary) FROM Employed", rel)
	for _, using := range []string{"LIST", "TREE", "BTREE", "KTREE 1", "KTREE 4", "TUMA"} {
		qr := execute(t, "SELECT SUM(Salary) FROM Employed USING "+using, rel)
		if !qr.Groups[0].Result.Equal(base.Groups[0].Result) {
			t.Errorf("USING %s: result differs from default plan", using)
		}
	}
}

func TestExecuteWrongRelationName(t *testing.T) {
	if _, err := Run("SELECT COUNT(Name) FROM Nonesuch", relation.Employed(), nil); err == nil {
		t.Fatal("expected unknown-relation error")
	}
}

func TestExecuteParseErrorPropagates(t *testing.T) {
	if _, err := Run("SELEC", relation.Employed(), nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestExecuteEmptyGroupByOnEmptyRelation(t *testing.T) {
	rel := relation.New("Empty")
	qr := execute(t, "SELECT Name, COUNT(Name) FROM Empty GROUP BY Name", rel)
	if len(qr.Groups) != 0 {
		t.Fatalf("%d groups over empty relation, want 0", len(qr.Groups))
	}
	qr = execute(t, "SELECT COUNT(Name) FROM Empty", rel)
	if len(qr.Groups) != 1 || len(qr.Groups[0].Result.Rows) != 1 {
		t.Fatal("ungrouped query over empty relation must yield the single empty constant interval")
	}
}

func TestExecuteResultString(t *testing.T) {
	qr := execute(t, "SELECT Name, COUNT(Name) FROM Employed GROUP BY Name", relation.Employed())
	s := qr.String()
	for _, want := range []string{"plan:", "group Karen", "group Nathan", "group Rich"} {
		if !strings.Contains(s, want) {
			t.Errorf("result output missing %q:\n%s", want, s)
		}
	}
}

func TestExecuteHonoursExplicitInfo(t *testing.T) {
	rel := relation.Employed()
	info := &RelationInfo{Tuples: rel.Len(), Sorted: false, KBound: rel.Len()}
	qr, err := Run("SELECT COUNT(Name) FROM Employed", rel, info)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan.Spec.Algorithm != core.KOrderedTree || qr.Plan.Spec.K != rel.Len() {
		t.Fatalf("plan = %v, want ktree with declared k", qr.Plan)
	}
	if err := qr.Groups[0].Result.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSampledKMissRetriesSorted: a plan that trusts a sampled disorder
// bound the relation breaks reruns its pass over the sorted relation at
// k=1, returning the default plan's rows.
func TestSampledKMissRetriesSorted(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 2000, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	info := &RelationInfo{Tuples: rel.Len(), KBound: -1, SampledK: 1,
		Cost: CostModel{MemoryByte: 1e-6, PageIO: 1000}}
	got, err := Run("SELECT MAX(Salary) FROM R", rel, info)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Plan.SampledK || got.Plan.SortFirst {
		t.Fatalf("plan %v does not gamble on the sampled bound", got.Plan)
	}
	want, err := Run("SELECT MAX(Salary) FROM R", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Groups[0].Result.Equal(want.Groups[0].Result) {
		t.Fatal("retried pass differs from the default plan")
	}
}
