package query

import (
	"strings"
	"testing"

	"tempagg/internal/interval"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

func TestParseAt(t *testing.T) {
	q := mustParse(t, "SELECT COUNT(Name) FROM Employed AT 19")
	if q.At == nil || *q.At != 19 {
		t.Fatalf("At = %v", q.At)
	}
	again := mustParse(t, q.String())
	if again.At == nil || *again.At != 19 {
		t.Fatalf("round trip lost AT: %q", q.String())
	}
}

func TestParseAtErrors(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(Name) FROM R AT",
		"SELECT COUNT(Name) FROM R AT -5",
		"SELECT COUNT(Name) FROM R AT x",
		"SELECT COUNT(Name) FROM R VALID OVERLAPS 0 9 AT 5",
		"SELECT COUNT(Name) FROM R AT 5 GROUP BY SPAN 10",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

// TestSnapshotMatchesTemporalResult: AT t must equal the instant-grouped
// result sampled at t, for every probe.
func TestSnapshotMatchesTemporalResult(t *testing.T) {
	rel := relation.Employed()
	full := execute(t, "SELECT AVG(Salary) FROM Employed", rel)
	for _, at := range []interval.Time{0, 7, 12, 15, 19, 21, 30} {
		qr, err := Run(
			"SELECT AVG(Salary) FROM Employed AT "+interval.FormatTime(at), rel, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := qr.Groups[0].Result
		if len(res.Rows) != 1 || res.Rows[0].Interval != interval.At(at) {
			t.Fatalf("AT %d: rows = %v", at, res.Rows)
		}
		want, _ := full.Groups[0].Result.At(at)
		got := res.Value(0)
		if got != want {
			t.Fatalf("AT %d = %v, want %v", at, got, want)
		}
	}
}

func TestSnapshotPlanReason(t *testing.T) {
	qr := execute(t, "SELECT COUNT(Name) FROM Employed AT 19", relation.Employed())
	if !strings.Contains(qr.Plan.Reason, "snapshot") {
		t.Fatalf("plan = %v", qr.Plan)
	}
}

func TestSnapshotWithGroupByAndWhere(t *testing.T) {
	qr := execute(t,
		"SELECT Name, COUNT(Name) FROM Employed AT 19 WHERE Salary > 36 GROUP BY Name",
		relation.Employed())
	// Qualifying at 19 with Salary > 36: Rich (40), Karen (45), Nathan (37).
	if len(qr.Groups) != 3 {
		t.Fatalf("%d groups", len(qr.Groups))
	}
	for _, g := range qr.Groups {
		if got := g.Result.Value(0).Int; got != 1 {
			t.Errorf("group %s count = %d, want 1", g.Key, got)
		}
	}
}

func TestSnapshotViaFile(t *testing.T) {
	path := writeRelation(t, relation.Employed())
	qr := runFile(t, "SELECT MAX(Salary) FROM Employed AT 21", path)
	if got := qr.Groups[0].Result.Value(0).Int; got != 40 {
		t.Fatalf("MAX at 21 = %d, want 40", got)
	}
}

// TestSnapshotReportsGroupsAbsentAtInstant: an AT scan drops tuples not
// valid at the instant before buffering them, yet every group that passes
// WHERE is still reported — COUNT 0 and a null MAX where no tuple covers
// the instant — on every route, DISTINCT included. The snapshot-scan
// counter counts only the tuples valid at the instant.
func TestSnapshotReportsGroupsAbsentAtInstant(t *testing.T) {
	rel := relation.FromTuples("R", []tuple.Tuple{
		tuple.MustNew("a", 10, 0, 100),
		tuple.MustNew("a", 20, 40, 60),
		tuple.MustNew("a", 20, 40, 60),
		tuple.MustNew("b", 30, 0, 10),
		tuple.MustNew("b", 40, 70, interval.Forever),
		tuple.MustNew("c", 99, 0, interval.Forever), // fails WHERE
	})
	path := writeRelation(t, rel)
	img, err := relation.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT Name, COUNT(Name), MAX(Salary), COUNT(DISTINCT Name) FROM R AT 50 WHERE Salary < 50 GROUP BY Name"
	routes := map[string]func() (*QueryResult, error){
		"memory": func() (*QueryResult, error) { return Run(sql, rel, nil) },
		"file":   func() (*QueryResult, error) { return RunFile(sql, path, nil, relation.ScanOptions{}) },
		"image":  func() (*QueryResult, error) { return ExecuteImage(mustParse(t, sql), img, nil) },
	}
	for route, run := range routes {
		qr, err := run()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if len(qr.Groups) != 2 || qr.Groups[0].Key != "a" || qr.Groups[1].Key != "b" {
			t.Fatalf("%s: groups %+v, want a and b", route, qr.Groups)
		}
		a, b := qr.Groups[0].Results, qr.Groups[1].Results
		if got := a[0].Value(0).Int; got != 3 {
			t.Errorf("%s: COUNT for a = %d, want 3", route, got)
		}
		if got := a[1].Value(0); got.Null || got.Int != 20 {
			t.Errorf("%s: MAX for a = %+v, want 20", route, got)
		}
		if got := a[2].Value(0).Int; got != 2 {
			t.Errorf("%s: COUNT(DISTINCT) for a = %d, want 2", route, got)
		}
		if got := b[0].Value(0).Int; got != 0 {
			t.Errorf("%s: COUNT for b = %d, want 0", route, got)
		}
		if got := b[1].Value(0); !got.Null {
			t.Errorf("%s: MAX for b = %+v, want null", route, got)
		}
		if got := b[2].Value(0).Int; got != 0 {
			t.Errorf("%s: COUNT(DISTINCT) for b = %d, want 0", route, got)
		}
		if n := qr.Groups[0].AllStats[0].Tuples; n != 3 {
			t.Errorf("%s: snapshot scan counted %d tuples for a, want the 3 valid at 50", route, n)
		}
	}
}
