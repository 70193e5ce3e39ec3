// Tests for the S37 catalog caches: the versioned result cache (hit on
// repeat, structural invalidation when the file fingerprint moves) and the
// resident interval-index layer (plan choice, equivalence with the sweep).
package catalog

import (
	"path/filepath"
	"strings"
	"testing"

	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// The synthetic relation spans workload.DefaultLifespan (1M instants), so
// the window covers a meaty slice of it.
const cacheTestQuery = "SELECT COUNT(Name), SUM(Salary) FROM Synth VALID OVERLAPS 1000 900000"

// TestResultCacheServesAndInvalidates: the second identical query is a
// cache hit with the same answer; rewriting the relation file moves the
// fingerprint, so the third query re-evaluates against the new contents.
func TestResultCacheServesAndInvalidates(t *testing.T) {
	dir := newCatalogDir(t)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableResultCache(8)

	cold, err := c.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Plan.Cached {
		t.Fatalf("first query served from an empty cache: %+v", cold.Plan)
	}
	warm, err := c.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Plan.Cached {
		t.Fatalf("repeat query missed the cache: %+v", warm.Plan)
	}
	if !strings.Contains(warm.Plan.Reason, "result cache hit at version") {
		t.Fatalf("cached plan reason = %q", warm.Plan.Reason)
	}
	for i := range cold.Groups[0].Results {
		if !warm.Groups[0].Results[i].Equal(cold.Groups[0].Results[i]) {
			t.Fatalf("cached aggregate %d differs from the evaluated one", i)
		}
	}
	// The core cache counts per-aggregate probes: the cold query misses on
	// its first aggregate and short-circuits; the warm query hits both.
	if st := c.ResultCacheStats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("cache stats after warm read = %+v", st)
	}

	// Rewrite the file with different contents (different tuple count, so
	// the size component of the fingerprint moves even on coarse mtimes).
	synth, err := workload.Generate(workload.Config{Tuples: 700, Order: workload.Random, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteFile(filepath.Join(dir, "Synth.rel"), synth); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Plan.Cached {
		t.Fatalf("query after rewrite served stale cache entry: %+v", after.Plan)
	}
	if after.Groups[0].Results[0].Equal(cold.Groups[0].Results[0]) {
		t.Fatal("rewritten relation produced the old answer — stale read")
	}
}

// TestRangeIndexPlanMatchesSweep: with the index layer on, an eligible
// range query plans as index-lookup and its rows match the sweep's.
func TestRangeIndexPlanMatchesSweep(t *testing.T) {
	dir := newCatalogDir(t)
	plain, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	indexed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	indexed.EnableRangeIndex()
	got, err := indexed.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Plan.UseIndex || got.Plan.Algorithm() != "index-lookup" {
		t.Fatalf("indexed catalog picked %q (%+v), want index-lookup", got.Plan.Algorithm(), got.Plan)
	}
	for i := range want.Groups[0].Results {
		if !got.Groups[0].Results[i].Equal(want.Groups[0].Results[i]) {
			t.Fatalf("index aggregate %d differs from sweep", i)
		}
	}
	// The resident index survives for the next query; same answer again.
	again, err := indexed.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Plan.UseIndex {
		t.Fatalf("second indexed query lost the index plan: %+v", again.Plan)
	}

	// An ineligible query (WHERE predicate) must fall back to scanning even
	// with the index layer on.
	pred, err := indexed.Query(
		"SELECT COUNT(Name) FROM Synth VALID OVERLAPS 1000 900000 WHERE Salary >= 0",
		relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Plan.UseIndex {
		t.Fatalf("WHERE query planned through the index: %+v", pred.Plan)
	}
}

// TestIndexQueryTraceLabel: a query served from the resident index is
// labelled index-lookup on its trace and in the per-algorithm query
// metrics — the label /debug/queries and /metrics group by — not by the
// zero-valued evaluator spec the index plan carries.
func TestIndexQueryTraceLabel(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableRangeIndex()
	o := obs.NewObserver(8, nil)
	qr, err := c.QueryObserved(cacheTestQuery, relation.ScanOptions{}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Plan.UseIndex {
		t.Fatalf("query did not take the resident index: %+v", qr.Plan)
	}
	traces := o.TraceBuffer().Snapshot()
	if len(traces) != 1 || traces[0].Algorithm != "index-lookup" {
		t.Fatalf("trace algorithm = %q, want index-lookup", traces[0].Algorithm)
	}
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := obs.MetricQueries + `{algorithm="index-lookup",status="ok"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestUsingIndexBuildsOnTheFly: USING INDEX without a resident index must
// still work — the executor builds a transient index for the query.
func TestUsingIndexBuildsOnTheFly(t *testing.T) {
	dir := newCatalogDir(t)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(cacheTestQuery, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(cacheTestQuery+" USING INDEX", relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Plan.UseIndex {
		t.Fatalf("USING INDEX ignored: %+v", got.Plan)
	}
	for i := range want.Groups[0].Results {
		if !got.Groups[0].Results[i].Equal(want.Groups[0].Results[i]) {
			t.Fatalf("USING INDEX aggregate %d differs from sweep", i)
		}
	}
	// USING INDEX on an ineligible query is a parse-time error, not a
	// silent fallback.
	if _, err := c.Query(
		"SELECT COUNT(Name) FROM Synth USING INDEX WHERE Salary >= 0",
		relation.ScanOptions{}); err == nil {
		t.Fatal("USING INDEX with WHERE succeeded, want error")
	}
}
