// Tests for the relation-image cache (image.go): lazy builds, versioning,
// the file-route fallbacks, the byte bound, and its metrics.
package catalog

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tempagg/internal/obs"
	"tempagg/internal/query"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// scanQuery reads tuples on any catalog: its WHERE keeps it away from the
// interval index and the result cache.
const scanQuery = "SELECT COUNT(Name) FROM Synth VALID OVERLAPS 1000 900000 WHERE Salary >= 0"

// querySource runs sql on c and returns the route its execute span names.
func querySource(t *testing.T, c *Catalog, sql string, sopts relation.ScanOptions) (*query.QueryResult, string) {
	t.Helper()
	tr := obs.NewQueryTrace(sql)
	qr, err := c.queryTraced(sql, sopts, tr)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "execute" {
			return qr, sp.Attrs["source"]
		}
	}
	return qr, ""
}

// TestImageBuiltLazilyAndRebuiltOnRewrite: the first scanning query builds
// the image, the next reuses it, and rewriting the file builds a new one
// that answers from the new contents.
func TestImageBuiltLazilyAndRebuiltOnRewrite(t *testing.T) {
	dir := newCatalogDir(t)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.imageStats(); st.Builds != 0 || st.Resident != 0 {
		t.Fatalf("Open built images: %+v", st)
	}
	first, src := querySource(t, c, scanQuery, relation.ScanOptions{})
	if src != "image" {
		t.Fatalf("source = %q, want image", src)
	}
	querySource(t, c, scanQuery, relation.ScanOptions{})
	if st := c.imageStats(); st.Builds != 1 || st.Resident != 1 {
		t.Fatalf("after two queries: %+v, want one build", st)
	}

	synth, err := workload.Generate(workload.Config{Tuples: 700, Order: workload.Random, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "Synth.rel")
	if err := relation.WriteFile(path, synth); err != nil {
		t.Fatal(err)
	}
	after, _ := querySource(t, c, scanQuery, relation.ScanOptions{})
	st := c.imageStats()
	if st.Builds != 2 || st.Resident != 1 {
		t.Fatalf("after rewrite: %+v, want a second build replacing the first", st)
	}
	if after.Groups[0].Result.Equal(first.Groups[0].Result) {
		t.Fatal("rewritten relation produced the old answer")
	}
	want, err := query.RunFile(scanQuery, path, nil, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Groups[0].Result.Equal(want.Groups[0].Result) {
		t.Fatal("image answer differs from the file route's")
	}
}

// TestImageNotBuiltWithoutScan: EXPLAIN, index lookups and result-cache
// hits read no tuple, so they build no image.
func TestImageNotBuiltWithoutScan(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableRangeIndex()
	c.EnableResultCache(8)
	for _, sql := range []string{
		"EXPLAIN " + scanQuery,
		cacheTestQuery, // the index
		cacheTestQuery, // the result cache
		"SELECT COUNT(Name) FROM Synth AT 5000",
	} {
		if _, err := c.Query(sql, relation.ScanOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.imageStats(); st.Builds != 0 {
		t.Fatalf("queries that scan nothing built %d images", st.Builds)
	}
}

// TestRandomizedScanTakesFileRoute: the §7 page-randomized scan reads the
// file, never the image.
func TestRandomizedScanTakesFileRoute(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, src := querySource(t, c, scanQuery, relation.ScanOptions{RandomizePages: true, Seed: 3})
	if src != "file" {
		t.Fatalf("randomized scan source = %q, want file", src)
	}
	if st := c.imageStats(); st.Builds != 0 {
		t.Fatalf("randomized scan built an image: %+v", st)
	}
}

// TestImageBuiltOnceConcurrently: first queries arriving together wait for
// one build.
func TestImageBuiltOnceConcurrently(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Query(scanQuery, relation.ScanOptions{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.imageStats(); st.Builds != 1 {
		t.Fatalf("8 concurrent first queries built %d images, want 1", st.Builds)
	}
}

// TestImageByteBound: the bound evicts the least recently used image, a
// relation too large for it reads its file, and an image whose dictionary
// tips it over is decoded once and then left to the file route. The
// metrics carry the same figures.
func TestImageByteBound(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := obs.NewRegistry()
	c.SetLiveMetrics(obs.NewMetrics(reg))
	const employed = "SELECT COUNT(Name) FROM Employed WHERE Salary >= 0"

	querySource(t, c, scanQuery, relation.ScanOptions{})
	synthBytes := c.imageStats().Bytes
	// Room for Synth's image and not Employed's besides.
	c.images.limit = synthBytes + 10
	if _, src := querySource(t, c, employed, relation.ScanOptions{}); src != "image" {
		t.Fatalf("Employed source = %q, want image", src)
	}
	st := c.imageStats()
	if st.Builds != 2 || st.Evictions != 1 || st.Resident != 1 || st.Bytes >= synthBytes {
		t.Fatalf("after Employed: %+v, want Synth evicted", st)
	}
	metrics := scrapeMetrics(t, reg)
	for series, want := range map[string]int64{
		obs.MetricImageBuilds:    2,
		obs.MetricImageEvictions: 1,
		obs.MetricImageBytes:     st.Bytes,
	} {
		if got := metrics[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}

	// Synth no longer fits at all: its file is scanned, nothing is built.
	c.images.limit = 100
	if _, src := querySource(t, c, scanQuery, relation.ScanOptions{}); src != "file" {
		t.Fatalf("over-bound Synth source = %q, want file", src)
	}
	// Employed's 4 tuples fit the per-tuple estimate (64 B) but not with
	// their names: the rebuild is used once, then the file takes over.
	c.images.limit = 4*relation.ImageBytesPerTuple + 10
	c.dropImages()
	for i, want := range []string{"image", "file"} {
		if _, src := querySource(t, c, employed, relation.ScanOptions{}); src != want {
			t.Fatalf("Employed query %d source = %q, want %s", i, src, want)
		}
	}
	if st := c.imageStats(); st.Builds != 3 || st.Resident != 0 || st.Bytes != 0 {
		t.Fatalf("after the over-bound image: %+v, want one more build and nothing resident", st)
	}
	if got := scrapeMetrics(t, reg)[obs.MetricImageBytes]; got != 0 {
		t.Errorf("%s = %d with nothing resident", obs.MetricImageBytes, got)
	}
}

// scrapeMetrics renders reg in the Prometheus text format and returns its
// unlabelled series.
func scrapeMetrics(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		var v int64
		for _, ch := range val {
			v = v*10 + int64(ch-'0')
		}
		out[name] = v
	}
	return out
}
