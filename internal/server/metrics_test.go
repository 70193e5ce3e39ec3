package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tempagg/internal/catalog"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
)

// startObservedServer is startServer with an observer attached, returning
// the observer and an httptest server over its admin mux.
func startObservedServer(t *testing.T) (*catalog.Catalog, *obs.Observer, string, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	if err := relation.WriteFile(filepath.Join(dir, "Employed.rel"), relation.Employed()); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver(16, nil)
	srv := New(cat, WithObserver(o))
	if srv.Observer() != o {
		t.Fatal("Observer() lost the option")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	admin := httptest.NewServer(AdminMux(o))
	t.Cleanup(func() {
		admin.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return cat, o, lis.Addr().String(), admin
}

// scrape fetches one admin endpoint and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue finds `name{labels} v` in a Prometheus exposition and returns
// v, failing the test when the series is absent.
func metricValue(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return int64(v)
		}
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, body)
	return 0
}

func TestMetricsEndpointExactValues(t *testing.T) {
	cat, _, addr, admin := startObservedServer(t)

	const sql = "SELECT COUNT(Name) FROM Employed"
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(sql)
	if err != nil || !resp.OK {
		t.Fatalf("query failed: %+v, %v", resp, err)
	}

	// The expected counters come from the identical unobserved execution:
	// same catalog, same file, same plan — so the scrape must match its
	// core.Stats exactly.
	qr, err := cat.Query(sql, relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := qr.Groups[0].Stats
	alg := qr.Plan.Spec.Algorithm.String()

	body := scrape(t, admin.URL+"/metrics")
	lbl := fmt.Sprintf(`{algorithm="%s"}`, alg)
	if got := metricValue(t, body, obs.MetricTuplesProcessed+lbl); got != int64(want.Tuples) {
		t.Errorf("tuples processed = %d, core.Stats says %d", got, want.Tuples)
	}
	// Cumulative allocations = nodes still live at Finish + nodes the
	// k-ordered GC reclaimed along the way.
	if got := metricValue(t, body, obs.MetricNodesAllocated+lbl); got != int64(want.LiveNodes+want.Collected) {
		t.Errorf("nodes allocated = %d, core.Stats says %d", got, want.LiveNodes+want.Collected)
	}
	if got := metricValue(t, body, obs.MetricNodesCollected+lbl); got != int64(want.Collected) {
		t.Errorf("nodes collected = %d, core.Stats says %d", got, want.Collected)
	}
	if got := metricValue(t, body, obs.MetricPeakNodes+lbl); got != int64(want.PeakNodes) {
		t.Errorf("peak nodes = %d, core.Stats says %d", got, want.PeakNodes)
	}
	okLbl := fmt.Sprintf(`{algorithm="%s",status="ok"}`, alg)
	if got := metricValue(t, body, obs.MetricQueries+okLbl); got != 1 {
		t.Errorf("queries_total = %d, want 1", got)
	}
	if got := metricValue(t, body, obs.MetricQueryDuration+"_count"+lbl); got != 1 {
		t.Errorf("duration histogram count = %d, want 1", got)
	}
	if !strings.Contains(body, obs.MetricQueryDuration+"_bucket{algorithm=") {
		t.Errorf("duration histogram has no buckets:\n%s", body)
	}
}

func TestMetricsCountsPerAlgorithmAndErrors(t *testing.T) {
	_, _, addr, admin := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two USING LIST queries, one forced error.
	for i := 0; i < 2; i++ {
		if resp, err := c.Query("SELECT COUNT(Name) FROM Employed USING LIST"); err != nil || !resp.OK {
			t.Fatalf("query failed: %+v, %v", resp, err)
		}
	}
	if resp, err := c.Query("SELECT COUNT(Name) FROM Nope"); err != nil || resp.OK {
		t.Fatalf("expected query error, got %+v, %v", resp, err)
	}

	body := scrape(t, admin.URL+"/metrics")
	if got := metricValue(t, body, obs.MetricQueries+`{algorithm="linked-list",status="ok"}`); got != 2 {
		t.Errorf("linked-list ok count = %d, want 2", got)
	}
	// Name resolution fails before planning, so the error lands on "none".
	if got := metricValue(t, body, obs.MetricQueries+`{algorithm="none",status="error"}`); got != 1 {
		t.Errorf("error count = %d, want 1", got)
	}
}

func TestAdminTracesAndPprof(t *testing.T) {
	_, o, addr, admin := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = "SELECT MAX(Salary) FROM Employed"
	if resp, err := c.Query(sql); err != nil || !resp.OK {
		t.Fatalf("query failed: %+v, %v", resp, err)
	}

	var traces []struct {
		Query     string `json:"query"`
		Algorithm string `json:"algorithm"`
		Spans     []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(scrape(t, admin.URL+"/debug/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Query != sql || traces[0].Algorithm == "" {
		t.Fatalf("traces = %+v", traces)
	}
	names := map[string]bool{}
	for _, sp := range traces[0].Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"parse", "plan", "execute"} {
		if !names[want] {
			t.Errorf("trace missing %q span: %+v", want, traces[0].Spans)
		}
	}
	if got := len(o.Traces.Snapshot()); got != 1 {
		t.Errorf("ring holds %d traces, want 1", got)
	}

	if heap := scrape(t, admin.URL+"/debug/pprof/heap"); len(heap) == 0 {
		t.Error("pprof heap profile is empty")
	}
}

func TestDebugQueriesWindow(t *testing.T) {
	_, _, addr, admin := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const runs = 3
	for i := 0; i < runs; i++ {
		if resp, err := c.Query("SELECT COUNT(Salary) FROM Employed USING SWEEP"); err != nil || !resp.OK {
			t.Fatalf("query failed: %+v, %v", resp, err)
		}
	}

	var snap obs.WindowSnapshot
	if err := json.Unmarshal([]byte(scrape(t, admin.URL+"/debug/queries")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.WindowSeconds <= 0 || snap.SlowThreshold <= 0 || snap.ErrorBudget <= 0 {
		t.Errorf("window config not echoed: %+v", snap)
	}
	stages := map[string]obs.StageSnapshot{}
	for _, s := range snap.Stages {
		stages[s.Stage] = s
	}
	// Every query contributes a whole-query sample plus one per stage span.
	for _, stage := range []string{"query", "parse", "plan", "execute"} {
		s, ok := stages[stage]
		if !ok {
			t.Fatalf("window missing stage %q: %+v", stage, snap.Stages)
		}
		if s.Count != runs {
			t.Errorf("stage %q count = %d, want %d", stage, s.Count, runs)
		}
		if s.Algorithm != "sweep" {
			t.Errorf("stage %q algorithm = %q, want sweep", stage, s.Algorithm)
		}
		if len(s.Buckets) == 0 {
			t.Errorf("stage %q has no histogram buckets", stage)
		}
		if s.P50 < 0 || s.P90 < s.P50 || s.P99 < s.P90 {
			t.Errorf("stage %q quantiles not monotone: p50=%g p90=%g p99=%g", stage, s.P50, s.P90, s.P99)
		}
		// At least one bucket must carry an exemplar trace ID, and the sum
		// of bucket counts must equal the sample count.
		var bucketSum int64
		exemplar := false
		for _, b := range s.Buckets {
			bucketSum += b.Count
			if b.Exemplar != "" {
				exemplar = true
			}
		}
		if bucketSum != s.Count {
			t.Errorf("stage %q bucket counts sum to %d, want %d", stage, bucketSum, s.Count)
		}
		if !exemplar {
			t.Errorf("stage %q has no exemplar trace ID", stage)
		}
	}
}

func TestAdminMuxNilObserver(t *testing.T) {
	admin := httptest.NewServer(AdminMux(nil))
	defer admin.Close()
	for _, ep := range []string{"/metrics", "/debug/traces", "/debug/queries"} {
		resp, err := http.Get(admin.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with nil observer = %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestMetricsResponseCounters: the reply counters equal what the client
// read — every line's bytes with its newline, and every result row.
func TestMetricsResponseCounters(t *testing.T) {
	_, _, addr, admin := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var bytes, rows int64
	for _, sql := range []string{
		"SELECT COUNT(Name), AVG(Salary) FROM Employed",
		"SELECT Name, MIN(Salary) FROM Employed WHERE Salary < 50000 GROUP BY Name",
		"EXPLAIN SELECT SUM(Salary) FROM Employed",
		"SELECT COUNT(Name) FROM Nope",
		"INGEST feed a 1 2 FOREVER",
	} {
		line, err := c.QueryRaw(sql)
		if err != nil {
			t.Fatal(err)
		}
		bytes += int64(len(line)) + 1
		var reply struct {
			Result struct {
				Groups []struct {
					Results []struct {
						Rows []json.RawMessage `json:"rows"`
					} `json:"results"`
				} `json:"groups"`
			} `json:"result"`
		}
		if err := json.Unmarshal(line, &reply); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, g := range reply.Result.Groups {
			for _, r := range g.Results {
				rows += int64(len(r.Rows))
			}
		}
	}
	if rows == 0 {
		t.Fatal("no rows came back")
	}
	body := scrape(t, admin.URL+"/metrics")
	if got := metricValue(t, body, obs.MetricResponseBytes); got != bytes {
		t.Errorf("%s = %d, client read %d bytes", obs.MetricResponseBytes, got, bytes)
	}
	if got := metricValue(t, body, obs.MetricResponseRows); got != rows {
		t.Errorf("%s = %d, client read %d rows", obs.MetricResponseRows, got, rows)
	}
}
