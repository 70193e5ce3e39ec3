// Command benchharness regenerates every table and figure of the paper's
// evaluation section (Kline & Snodgrass §6) plus the future-work ablations,
// printing one aligned table per artifact: rows are the paper's curves,
// columns the relation sizes.
//
// Usage:
//
//	benchharness                  # everything, full 1K–64K sweep
//	benchharness -exp fig7        # one experiment
//	benchharness -max-size 16384  # cap the sweep (the sorted-input
//	                              # aggregation tree is O(n²) by design)
//	benchharness -seeds 5         # more repetitions per point
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"tempagg/internal/bench"
	"tempagg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
}

var experiments = []struct {
	name string
	desc string
	run  func(bench.Options) (bench.Figure, error)
}{
	{"fig6", "time on unordered relations", bench.Figure6},
	{"fig7", "time on ordered relations, no long-lived tuples", bench.Figure7},
	{"fig8", "time on ordered relations, 80% long-lived tuples", bench.Figure8},
	{"fig9", "memory, no long-lived tuples", bench.Figure9},
	{"mem-longlived", "memory, 80% long-lived tuples (§6.2 prose)", bench.MemoryLongLived},
	{"ablation-balanced", "balanced aggregation tree (future work §7)", bench.AblationBalanced},
	{"ablation-pages", "page-randomized reads of sorted files (future work §7)", bench.AblationPageRandomization},
	{"ablation-partitioned", "limited-main-memory partitioned evaluation (§5.1/§7)", bench.AblationPartitioned},
	{"ablation-span", "span grouping vs instant grouping (future work §7)", bench.AblationSpan},
	{"baseline", "hot-path baseline for before/after comparison (see BENCH_PR4.json)", bench.Baseline},
	{"sweep", "columnar event sweep vs aggregation tree (see BENCH_PR5.json)", bench.SweepFigure},
	{"live-read", "live snapshot reads during ingestion vs batch re-evaluation (see BENCH_PR9.json)", bench.LiveReadFigure},
	{"range-query", "range-restricted aggregates: interval index vs full sweep vs result cache (see BENCH_PR10.json)", bench.RangeQueryFigure},
}

// jsonReport is the machine-readable output of -json: enough run metadata to
// make two reports comparable, plus the measured figures.
type jsonReport struct {
	Sizes       []int          `json:"sizes"`
	Seeds       []int64        `json:"seeds"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Experiments []bench.Figure `json:"experiments"`
}

// verifySize is the relation size for -verify: -max-size when given on
// the command line, otherwise 0, which leaves VerifyClaims its own 8K
// default — the sweep's 64K default would run the linked list for minutes.
func verifySize(fs *flag.FlagSet, maxSize int) int {
	size := 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "max-size" {
			size = maxSize
		}
	})
	return size
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchharness", flag.ContinueOnError)
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	var (
		exp      = fs.String("exp", "all", "experiments, comma-separated: all, table1, table2, "+strings.Join(names, ", "))
		maxSize  = fs.Int("max-size", 1<<16, "largest relation size in the sweep")
		seeds    = fs.Int("seeds", 3, "random seeds per point (median reported)")
		format   = fs.String("format", "table", "output format for figures: table or csv")
		asJSON   = fs.Bool("json", false, "baseline mode: emit one JSON report of the selected figure experiments (table1/table2 are skipped); diffable across binaries for before/after comparison")
		verify   = fs.Bool("verify", false, "re-measure the paper's qualitative claims and print PASS/FAIL verdicts")
		baseline = fs.String("baseline", "", "regression gate: compare the selected figure experiments against this checked-in JSON report (e.g. BENCH_PR4.json) and fail on a median slowdown beyond -tolerance")
		tol      = fs.Float64("tolerance", 0.25, "allowed fractional slowdown per series for -baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := bench.Options{}
	for _, n := range workload.Table3Sizes() {
		if n <= *maxSize {
			opts.Sizes = append(opts.Sizes, n)
		}
	}
	if len(opts.Sizes) == 0 {
		return fmt.Errorf("-max-size %d admits no Table 3 size (smallest is 1024)", *maxSize)
	}
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, int64(101+i*101))
	}

	if *verify {
		claims, err := bench.VerifyClaims(verifySize(fs, *maxSize), 101)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatClaims(claims))
		failed := 0
		for _, c := range claims {
			if !c.Passed {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d claim(s) failed", failed)
		}
		return nil
	}

	selected := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(n)] = true
	}
	all := selected["all"]
	ran := false
	if *asJSON {
		report := jsonReport{
			Sizes:      opts.Sizes,
			Seeds:      opts.Seeds,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		}
		for _, e := range experiments {
			if !all && !selected[e.name] {
				continue
			}
			fig, err := e.run(opts)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			report.Experiments = append(report.Experiments, fig)
		}
		if len(report.Experiments) == 0 {
			return fmt.Errorf("-json: no figure experiment matches %q", *exp)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		return gateAgainst(*baseline, *tol, report.Experiments)
	}
	if all || selected["table1"] {
		s, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
		ran = true
	}
	if all || selected["table2"] {
		s, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
		ran = true
	}
	var measured []bench.Figure
	for _, e := range experiments {
		if !all && !selected[e.name] {
			continue
		}
		fig, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		switch *format {
		case "csv":
			fmt.Fprintln(out, fig.CSV())
		case "table":
			fmt.Fprintln(out, fig)
		default:
			return fmt.Errorf("unknown -format %q (want table or csv)", *format)
		}
		measured = append(measured, fig)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return gateAgainst(*baseline, *tol, measured)
}

// gateAgainst applies the bench regression gate when a baseline report was
// named. The per-series verdicts go to stderr so -json output stays pure.
func gateAgainst(path string, tolerance float64, figures []bench.Figure) error {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	res, err := bench.RegressionGate(data, figures, tolerance)
	if err != nil {
		return err
	}
	for _, line := range res.Lines {
		fmt.Fprintln(os.Stderr, "baseline:", line)
	}
	if len(res.Regressions) > 0 {
		return fmt.Errorf("bench regression vs %s:\n  %s",
			path, strings.Join(res.Regressions, "\n  "))
	}
	return nil
}
