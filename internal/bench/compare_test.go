package bench

import (
	"os"
	"strings"
	"testing"

	"tempagg/internal/aggregate"
	"tempagg/internal/core"
	"tempagg/internal/obs"
)

// handBaseline is a BENCH_PR<N>.json-shaped report: before/after points,
// where after_seconds is the checked-in measurement.
const handBaseline = `{
  "pr": 4,
  "experiment": "baseline",
  "acceptance": {"criterion": "x", "speedup": 1.68, "pass": true},
  "series": [
    {"name": "aggregation-tree random", "points": [
      {"size": 1024, "before_seconds": 0.002, "after_seconds": 0.001, "speedup": 2.0},
      {"size": 2048, "before_seconds": 0.004, "after_seconds": 0.002, "speedup": 2.0},
      {"size": 4096, "before_seconds": 0.008, "after_seconds": 0.004, "speedup": 2.0}
    ]},
    {"name": "ktree sorted k=1", "points": [
      {"size": 1024, "before_seconds": 0.001, "after_seconds": 0.001, "speedup": 1.0}
    ]}
  ]
}`

// harnessBaseline is the harness's own -json report shape (value points).
const harnessBaseline = `{
  "sizes": [1024],
  "experiments": [
    {"id": "baseline", "title": "t", "metric": "seconds", "series": [
      {"name": "aggregation-tree random", "points": [{"size": 1024, "value": 0.001}]}
    ]}
  ]
}`

// stagedBaseline is a current harness report with per-stage timing fields.
const stagedBaseline = `{
  "sizes": [1024],
  "gomaxprocs": 4,
  "experiments": [
    {"id": "baseline", "title": "t", "metric": "seconds", "series": [
      {"name": "aggregation-tree random", "points": [
        {"size": 1024, "value": 0.001,
         "stages": {"radix-sort": 0.0002, "scan": 0.0006, "emit": 0.0002}}
      ]}
    ]}
  ]
}`

// TestBaselinesParseAcrossReportVersions pins the compatibility contract in
// both directions: reports that predate the per-stage timing fields (the
// checked-in BENCH_PR<N>.json files) must keep parsing and gating, and a
// report that carries the new fields must parse in an old binary's shape —
// both rely on encoding/json dropping unknown fields rather than erroring.
func TestBaselinesParseAcrossReportVersions(t *testing.T) {
	for _, path := range []string{"../../BENCH_PR5.json", "../../BENCH_PR7.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("checked-in baseline unreadable: %v", err)
		}
		points, err := ParseBaseline(data)
		if err != nil {
			t.Errorf("%s no longer parses: %v", path, err)
		}
		if len(points) == 0 {
			t.Errorf("%s parsed to zero points", path)
		}
	}
	points, err := ParseBaseline([]byte(stagedBaseline))
	if err != nil {
		t.Fatalf("report with stage timings must parse as a baseline: %v", err)
	}
	if v := points[pointKey{"baseline", "aggregation-tree random", 1024}]; v != 0.001 {
		t.Fatalf("staged shape: value not picked up, got %g", v)
	}
	// And the gate itself runs against the staged report.
	fig := measuredFigure("aggregation-tree random", map[int]float64{1024: 0.001})
	res, err := RegressionGate([]byte(stagedBaseline), []Figure{fig}, 0.25)
	if err != nil || len(res.Regressions) != 0 {
		t.Fatalf("gate vs staged baseline: %+v, %v", res, err)
	}
}

func measuredFigure(name string, sizeToSeconds map[int]float64) Figure {
	s := Series{Name: name}
	for size, v := range sizeToSeconds {
		s.Points = append(s.Points, Point{Size: size, Value: v})
	}
	return Figure{ID: "baseline", Metric: "seconds", Series: []Series{s}}
}

func TestParseBaselineBothShapes(t *testing.T) {
	hand, err := ParseBaseline([]byte(handBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if v := hand[pointKey{"baseline", "aggregation-tree random", 2048}]; v != 0.002 {
		t.Fatalf("hand shape: after_seconds not picked up, got %g", v)
	}
	harness, err := ParseBaseline([]byte(harnessBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if v := harness[pointKey{"baseline", "aggregation-tree random", 1024}]; v != 0.001 {
		t.Fatalf("harness shape: value not picked up, got %g", v)
	}
	if _, err := ParseBaseline([]byte(`{"pr": 9}`)); err == nil {
		t.Fatal("a report with no points must be rejected")
	}
	if _, err := ParseBaseline([]byte(`nonsense`)); err == nil {
		t.Fatal("invalid JSON must be rejected")
	}
}

func TestRegressionGatePassesWithinTolerance(t *testing.T) {
	// 20% slower than the baseline at every size: inside the 25% gate.
	fig := measuredFigure("aggregation-tree random",
		map[int]float64{1024: 0.0012, 2048: 0.0024, 4096: 0.0048})
	res, err := RegressionGate([]byte(handBaseline), []Figure{fig}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", res.Regressions)
	}
	if len(res.Lines) != 1 || !strings.Contains(res.Lines[0], "3 shared point(s)") {
		t.Fatalf("lines = %v", res.Lines)
	}
}

func TestRegressionGateFailsBeyondTolerance(t *testing.T) {
	fig := measuredFigure("aggregation-tree random",
		map[int]float64{1024: 0.002, 2048: 0.004, 4096: 0.008}) // 2× the baseline
	res, err := RegressionGate([]byte(handBaseline), []Figure{fig}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 {
		t.Fatalf("regressions = %v", res.Regressions)
	}
	if !strings.Contains(res.Regressions[0], "aggregation-tree random") {
		t.Fatalf("regression line lacks the series: %q", res.Regressions[0])
	}
}

func TestRegressionGateMedianShrugsOffOneNoisyPoint(t *testing.T) {
	// One wild point among three, the others matched: median ratio stays 1.
	fig := measuredFigure("aggregation-tree random",
		map[int]float64{1024: 0.01, 2048: 0.002, 4096: 0.004})
	res, err := RegressionGate([]byte(handBaseline), []Figure{fig}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("median gate tripped on a single noisy point: %v", res.Regressions)
	}
}

func TestRegressionGateSkipsNonOverlapAndNonSeconds(t *testing.T) {
	figs := []Figure{
		// Unknown series and unknown size: no overlap, skipped.
		measuredFigure("no-such-series", map[int]float64{1024: 9}),
		// Memory figures are not timing-gated.
		{ID: "baseline", Metric: "bytes", Series: []Series{
			{Name: "aggregation-tree random", Points: []Point{{Size: 1024, Value: 1e9}}},
		}},
		measuredFigure("ktree sorted k=1", map[int]float64{1024: 0.001}),
	}
	res, err := RegressionGate([]byte(handBaseline), figs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 1 || len(res.Regressions) != 0 {
		t.Fatalf("res = %+v", res)
	}

	// Nothing overlapping at all is an error, not a silent pass.
	if _, err := RegressionGate([]byte(handBaseline),
		[]Figure{measuredFigure("no-such-series", map[int]float64{1: 1})}, 0.25); err == nil {
		t.Fatal("no overlap must be an error")
	}
}

// TestSweepFigureShape pins the work behind the sweep figure (S33) on
// its own seeded inputs, in counters rather than clocks: the sweep turns
// n tuples into 2n events, holds nothing but their 2n slots (no tree
// node), and sorts them in a bounded number of radix passes, while the
// aggregation tree allocates at least one node per tuple. The timing
// claim, the sweep beating the tree at 8K tuples, is `sweep-beats-tree`
// in VerifyClaims.
func TestSweepFigureShape(t *testing.T) {
	opts := smallOpts()
	f := aggregate.For(opts.Agg)
	counter := func(m *obs.Metrics, name, alg string) int64 {
		return m.Registry().CounterVec(name, "", "algorithm").With(alg).Value()
	}
	for _, size := range opts.Sizes {
		for _, seed := range opts.Seeds {
			rel, err := genRandom(0)(size, seed)
			if err != nil {
				t.Fatal(err)
			}
			sweep, tree := obs.NewMetrics(obs.NewRegistry()), obs.NewMetrics(obs.NewRegistry())
			if _, _, err := core.RunObserved(core.Spec{Algorithm: core.SweepEval}, f, rel.Tuples, sweep); err != nil {
				t.Fatal(err)
			}
			if _, _, err := core.RunObserved(core.Spec{Algorithm: core.AggregationTree}, f, rel.Tuples, tree); err != nil {
				t.Fatal(err)
			}
			if got := counter(sweep, obs.MetricSweepEvents, "sweep"); got != int64(2*size) {
				t.Errorf("size %d: sweep saw %d events, want %d", size, got, 2*size)
			}
			// Two event columns of 64-bit keys, at most 8 byte digits each.
			if got := counter(sweep, obs.MetricSweepRadix, "sweep"); got < 1 || got > 16 {
				t.Errorf("size %d: sweep ran %d radix passes, want 1..16", size, got)
			}
			// Its only structure is the event columns, one slot per event:
			// no tree node, no fallback to the tree.
			if got := counter(sweep, obs.MetricNodesAllocated, "sweep"); got != int64(2*size) {
				t.Errorf("size %d: sweep allocated %d slots, want its %d events", size, got, 2*size)
			}
			if got := counter(sweep, obs.MetricSweepFallbacks, "sweep"); got != 0 {
				t.Errorf("size %d: sweep fell back to the tree %d times", size, got)
			}
			if got := counter(tree, obs.MetricNodesAllocated, "aggregation-tree"); got < int64(size) {
				t.Errorf("size %d: aggregation tree allocated %d nodes, want at least %d", size, got, size)
			}
		}
	}
}
