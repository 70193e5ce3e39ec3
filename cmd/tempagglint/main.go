// Command tempagglint runs the domain-aware static-analysis suite over
// tempagg packages and exits non-zero if any invariant the paper's
// algorithms depend on is violated.
//
// Usage:
//
//	go run ./cmd/tempagglint ./...
//	go run ./cmd/tempagglint -enable errdrop,nodebytes ./internal/bench
//	go run ./cmd/tempagglint -baseline lint_baseline.json ./...
//	go run ./cmd/tempagglint -list
//
// Exit status: 0 clean, 1 findings (or baseline violations), 2 usage,
// load, or suppression-audit failure.
//
// The five syntactic/type analyzers (see internal/lint):
//
//   - intervalbounds — raw tuple.Tuple/interval.Interval literals that
//     bypass the validating constructors
//   - finishonce — Evaluator reuse after Finish (-strict-stats extends the
//     check to Stats calls)
//   - errdrop — discarded error results from tempagg APIs, goroutine
//     bodies included
//   - nodebytes — hardcoded 16 in memory accounting instead of
//     core.NodeBytes
//   - lockcopy — by-value copies of lock- or tree-holding structs
//
// And the four flow-sensitive analyzers built on the CFG/dataflow engine
// (internal/lint/cfg.go, dataflow.go):
//
//   - arenaescape — arena- or pool-backed values used after release or
//     stored somewhere that outlives the evaluation
//   - poolbalance — sync.Pool Get without a Put (or escape) on every
//     path, use after Put, and double Put
//   - atomicmix — fields accessed both through sync/atomic and by plain
//     read/write after publication
//   - unlockpath — mutexes still held on some path out of a function
//
// Suppress a single finding with a justified directive on or directly
// above the flagged line:
//
//	//tempagglint:ignore errdrop best-effort cache warm-up, failure is benign
//
// The reason is mandatory — a directive without one is an error — and a
// directive that no longer suppresses anything is reported as stale so
// it gets removed. With -baseline, findings and the ignore count are
// compared against a checked-in budget (lint_baseline.json at the repo
// root): only new findings or ignore-count growth fail, so existing
// debt can be paid down incrementally; -write-baseline regenerates the
// file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tempagg/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json:
// one array of these on stdout, file paths module-relative.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tempagglint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		list          = fs.Bool("list", false, "list the analyzers and exit")
		enable        = fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
		tests         = fs.Bool("tests", true, "analyze _test.go files and external test packages too")
		strictStats   = fs.Bool("strict-stats", false, "finishonce: also flag Stats calls after Finish")
		dir           = fs.String("C", "", "change to this directory before loading (like go -C)")
		jsonOut       = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		baseline      = fs.String("baseline", "", "compare against this baseline file; fail only on new findings or ignore-count growth")
		writeBaseline = fs.String("write-baseline", "", "write the current findings and ignore count to this baseline file and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: tempagglint [flags] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers(lint.Config{StrictStats: *strictStats})
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	allAnalyzers := *enable == ""
	if !allAnalyzers {
		selected, err := selectAnalyzers(analyzers, *enable)
		if err != nil {
			fmt.Fprintln(errOut, "tempagglint:", err)
			return 2
		}
		analyzers = selected
	}

	prog, err := lint.Load(lint.LoadOptions{Dir: *dir, Tests: *tests}, fs.Args()...)
	if err != nil {
		fmt.Fprintln(errOut, "tempagglint:", err)
		return 2
	}
	diags, directives, err := lint.RunWithAudit(prog, analyzers)
	if err != nil {
		fmt.Fprintln(errOut, "tempagglint:", err)
		return 2
	}

	// Suppression audit. Reasonless directives are always an error; stale
	// directives (suppressing nothing) only when the full suite ran —
	// under -enable a directive for a disabled analyzer is merely idle.
	audit := 0
	for _, d := range directives {
		if d.Reason == "" {
			fmt.Fprintf(errOut, "%s:%d: tempagglint:ignore without a reason — justify the suppression or remove it\n",
				d.Pos.Filename, d.Pos.Line)
			audit++
		} else if allAnalyzers && *tests && !d.Used {
			fmt.Fprintf(errOut, "%s:%d: stale tempagglint:ignore (%s): it suppresses nothing — remove it\n",
				d.Pos.Filename, d.Pos.Line, strings.Join(d.Analyzers, ","))
			audit++
		}
	}
	if audit > 0 {
		fmt.Fprintf(errOut, "tempagglint: %d suppression audit error(s)\n", audit)
		return 2
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(diags, len(directives), prog.ModuleDir)
		if err := b.Write(*writeBaseline); err != nil {
			fmt.Fprintln(errOut, "tempagglint:", err)
			return 2
		}
		fmt.Fprintf(errOut, "tempagglint: wrote %s (%d finding(s), %d ignore(s))\n",
			*writeBaseline, len(b.Findings), b.Ignores)
		return 0
	}

	if *jsonOut {
		arr := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			e := lint.EntryFor(d, prog.ModuleDir)
			arr = append(arr, jsonDiag{
				File: e.File, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(arr); err != nil {
			fmt.Fprintln(errOut, "tempagglint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}

	if *baseline != "" {
		b, err := lint.ReadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(errOut, "tempagglint:", err)
			return 2
		}
		delta := b.Compare(diags, len(directives), prog.ModuleDir)
		for _, d := range delta.New {
			fmt.Fprintf(errOut, "NEW %s\n", d)
		}
		if delta.Ignores > delta.BaselineIgnores {
			fmt.Fprintf(errOut, "tempagglint: ignore directives grew from %d to %d — remove suppressions or justify raising the budget via -write-baseline\n",
				delta.BaselineIgnores, delta.Ignores)
		}
		if delta.Fails() {
			fmt.Fprintf(errOut, "tempagglint: %d new finding(s) over baseline\n", len(delta.New))
			return 1
		}
		if delta.Resolved > 0 {
			fmt.Fprintf(errOut, "tempagglint: %d baselined finding(s) resolved — tighten with -write-baseline\n", delta.Resolved)
		}
		return 0
	}

	if len(diags) > 0 {
		fmt.Fprintf(errOut, "tempagglint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func selectAnalyzers(all []*lint.Analyzer, csv string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var selected []*lint.Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-enable selected no analyzers")
	}
	return selected, nil
}
