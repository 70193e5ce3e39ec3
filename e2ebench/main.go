// Command e2ebench is the end-to-end benchmark of tempaggd: it builds its
// inputs from a seed, starts a tempaggd built from this checkout as a
// separate process, drives it over the line protocol with closed-loop
// connections, checks every reply against its own timeslice evaluator, and
// prints one JSON object of metrics as its last line.
//
// Run it through run.sh from the repository root, which builds both
// programs first:
//
//	bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 25 --trace 0
//
// With --trace 1 the same workload runs serially and is replayed
// in-process, timing the calls into each layer; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// processStart anchors setup_s: the set-up is timed from the process's
// start, cold, once per run.
var processStart = time.Now()

// runLimit bounds a whole run; past it the run is abandoned with the
// daemon stopped and its files removed.
const runLimit = 170 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run is given.
type env struct {
	seconds int
	dir     string // the run's catalog directory
	daemon  string // tempaggd binary
}

// workload is one traffic mix.
type workload interface {
	// prepare generates the inputs and writes the relation files.
	prepare(e *env) error
	// warmup touches every query class once, so lazy set-up in the daemon
	// (index builds, first file reads) is done before timing.
	warmup(d *daemon) error
	// measure drives the daemon for the run's seconds and collects
	// end-to-end figures.
	measure(d *daemon, e *env) (*tally, error)
	// check verifies every reply collected so far and returns the number
	// of operations and of failed ones.
	check() (attempted, failed int)
	// trace replays the workload serially over the wire and in-process,
	// timing each layer.
	trace(d *daemon, e *env) (map[string]metric, error)
}

var workloads = map[string]func(seed int64) workload{
	"dashboard": newDashboard,
	"adhoc":     newAdhoc,
	"feed":      newFeed,
}

// tally is what the timed phase measured, in slices: the end-to-end
// metrics are medians over slices, so a stretch of interference from
// outside the benchmark moves them less than it would a whole-run figure.
type tally struct {
	slices []*slice
	rss    []float64 // daemon VmHWM, MiB: at the end, or per feed round
}

// slice is one stretch of the timed phase: a fixed span of the closed-loop
// workloads, one round of feed.
type slice struct {
	selects, ingests float64   // operations done in the slice
	latencies        []float64 // ms, per SELECT finished in the slice
	replyBytes       int64     // over those SELECTs
	elapsed          time.Duration
	cpu              time.Duration // daemon user+system time
}

func (s *slice) ops() float64 { return s.selects + s.ingests }

// cleanup holds what must be undone however the run ends.
var cleanup struct {
	sync.Mutex
	daemons map[*daemon]bool
	dir     string
}

// launch starts a daemon over the run's catalog and registers it for
// clean-up.
func launch(e *env) (*daemon, error) {
	d, err := startDaemon(e.daemon, e.dir)
	if err != nil {
		return nil, err
	}
	cleanup.Lock()
	defer cleanup.Unlock()
	if cleanup.daemons == nil {
		cleanup.daemons = map[*daemon]bool{}
	}
	cleanup.daemons[d] = true
	return d, nil
}

// retire stops a daemon and waits for it to exit.
func retire(d *daemon) {
	d.stop()
	cleanup.Lock()
	delete(cleanup.daemons, d)
	cleanup.Unlock()
}

func undo() {
	cleanup.Lock()
	defer cleanup.Unlock()
	for d := range cleanup.daemons {
		d.stop()
	}
	cleanup.daemons = nil
	if cleanup.dir != "" {
		_ = os.RemoveAll(cleanup.dir)
		cleanup.dir = ""
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: dashboard, adhoc or feed")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", 20, "length of the timed phase")
		traceRun = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		bin      = flag.String("daemon", "", "tempaggd binary to start")
		workdir  = flag.String("workdir", "", "directory for the run's temporary relation files")
	)
	flag.Parse()
	// A closed standard error must not end the run before its clean-up.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		undo()
		fmt.Fprintln(os.Stderr, "e2ebench: interrupted by", s)
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runLimit, func() {
		undo()
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %s\n", runLimit)
		os.Exit(3)
	})
	rep, err := run(*name, *seed, *seconds, *traceRun == 1, *bin, *workdir)
	watchdog.Stop()
	undo()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds int, traced bool, bin, workdir string) (*report, error) {
	mk, ok := workloads[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q (want dashboard, adhoc or feed)", name)
	case bin == "" || workdir == "":
		return nil, errors.New("-daemon and -workdir are required; run through run.sh")
	case seconds < 1:
		return nil, fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	cleanup.Lock()
	cleanup.dir = dir
	cleanup.Unlock()
	e := &env{seconds: seconds, dir: dir, daemon: bin}
	w := mk(seed)
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	d, err := launch(e)
	if err != nil {
		return nil, err
	}
	if err := w.warmup(d); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setup := time.Since(processStart)

	rep := &report{Metrics: map[string]metric{}}
	if traced {
		if rep.Metrics, err = w.trace(d, e); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	} else {
		steal0 := hostCPU()
		t, err := w.measure(d, e)
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		rep.Metrics = endToEnd(t, setup)
		if s := hostCPU().sub(steal0); s.total > 0 {
			fmt.Fprintf(os.Stderr, "e2ebench: %.0f%% of the machine's CPU time was stolen by its host while measuring\n",
				100*float64(s.steal)/float64(s.total))
		}
	}
	checkStart := time.Now()
	rep.Attempted, rep.Failed = w.check()
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: set-up %.2fs, run %.2fs, check %.2fs\n",
		name, seed, setup.Seconds(), checkStart.Sub(processStart.Add(setup)).Seconds(), time.Since(checkStart).Seconds())
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// cpuTicks is the machine-wide CPU time from /proc/stat: all of it, and the
// part its hypervisor gave to other guests (steal), which slows every
// timing and is reported on standard error to read the figures by.
type cpuTicks struct{ total, steal int64 }

func hostCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest ...]; guest
	// time is already counted in user.
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i <= 8 && i < len(f); i++ {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += n
		if i == 8 {
			t.steal = n
		}
	}
	return t
}

func (a cpuTicks) sub(b cpuTicks) cpuTicks { return cpuTicks{a.total - b.total, a.steal - b.steal} }

// endToEnd turns a tally into the end-to-end metrics.
func endToEnd(t *tally, setup time.Duration) map[string]metric {
	var tput, p50, p90, cpu []float64
	var selects, bytes int64
	for _, s := range t.slices {
		tput = append(tput, s.ops()/s.elapsed.Seconds())
		p50 = append(p50, quantileOf(s.latencies, 0.5))
		p90 = append(p90, quantileOf(s.latencies, 0.9))
		cpu = append(cpu, ms(s.cpu)/s.ops())
		selects += int64(len(s.latencies))
		bytes += s.replyBytes
	}
	return map[string]metric{
		"setup_s":              {setup.Seconds(), "s"},
		"throughput_ops_per_s": {quantileOf(tput, 0.5), "ops/s"},
		"query_p50_ms":         {quantileOf(p50, 0.5), "ms"},
		"query_p90_ms":         {quantileOf(p90, 0.5), "ms"},
		"server_cpu_ms_per_op": {quantileOf(cpu, 0.5), "ms"},
		"peak_rss_mb":          {quantileOf(t.rss, 0.5), "MiB"},
		"reply_kb_per_query":   {float64(bytes) / 1024 / float64(selects), "KiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// connections is the closed-loop client count: two, never more than the
// machine's processors.
func connections() int { return min(2, runtime.NumCPU()) }

// rngFor derives an independent generator for one stream of a run.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// checkEach runs check(i) for i in [0, n) on every processor — the
// daemon is idle while replies are checked — and returns the errors by
// index. Each check must draw its instants from its own generator.
func checkEach(n int, check func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = check(i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// countFailures counts the errors, printing the first few to standard
// error with what(i) naming the operation.
func countFailures(errs []error, what func(i int) string) (failed int) {
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if failed <= 5 {
			fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s: %v\n", what(i), err)
		}
	}
	return failed
}
