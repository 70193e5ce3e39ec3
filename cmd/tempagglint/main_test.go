package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempagg/internal/lint"
)

func TestListPrintsAllAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -list = %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{
		"intervalbounds", "finishonce", "errdrop", "nodebytes", "lockcopy",
		"arenaescape", "poolbalance", "atomicmix", "unlockpath",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all := lint.Analyzers(lint.Config{})
	got, err := selectAnalyzers(all, "errdrop, nodebytes")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "errdrop" || got[1].Name != "nodebytes" {
		t.Fatalf("selectAnalyzers = %v", got)
	}
	if _, err := selectAnalyzers(all, "nosuch"); err == nil {
		t.Error("unknown analyzer accepted")
	}
	if _, err := selectAnalyzers(all, " , "); err == nil {
		t.Error("empty selection accepted")
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run with bad flag = %d, want 2", code)
	}
}

// TestRepositoryIsClean is the acceptance gate: the suite must exit 0 over
// the whole tree, test files included — which also asserts that every
// in-tree suppression carries a reason and still suppresses something
// (the audit exits 2 otherwise). Skipped under -short because it
// type-checks the entire module.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is not short")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("tempagglint over the repository = %d\n%s%s", code, out.String(), errOut.String())
	}
}

// TestRepositoryMatchesBaseline runs the CI invocation: the checked-in
// baseline must admit the current tree (no new findings, ignore count
// within budget).
func TestRepositoryMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is not short")
	}
	baseline, err := filepath.Abs("../../lint_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-C", "../..", "-baseline", baseline, "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("tempagglint -baseline over the repository = %d\n%s%s", code, out.String(), errOut.String())
	}
}

// writeTempModule materializes a throwaway module named tempagg (the
// loader only analyzes packages of that module) for driver-level
// negative tests.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module tempagg\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// leakSrc holds one planted unlockpath violation: the early return
// leaves mu locked.
const leakSrc = `package leak

import "sync"

var mu sync.Mutex

func Bad(b bool) bool {
	mu.Lock()
	if b {
		return true
	}
	mu.Unlock()
	return false
}
`

// TestBaselineGate is the negative test for the findings budget: a
// planted violation must fail against an empty baseline, pass after
// -write-baseline captures it, and suppressing it must then trip the
// ignore-count budget instead.
func TestBaselineGate(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go list")
	}
	dir := writeTempModule(t, map[string]string{"leak/leak.go": leakSrc})
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"version":1,"ignores":0,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// A synthetic new finding over an empty baseline must fail.
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir, "-baseline", empty, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("empty baseline vs planted violation = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "NEW ") || !strings.Contains(errOut.String(), "new finding(s) over baseline") {
		t.Fatalf("baseline failure does not identify the new finding:\n%s", errOut.String())
	}

	// Capturing the violation with -write-baseline makes the gate pass.
	captured := filepath.Join(dir, "captured.json")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "-write-baseline", captured, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("-write-baseline = %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "-baseline", captured, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("captured baseline vs same tree = %d, want 0\n%s%s", code, out.String(), errOut.String())
	}

	// Suppressing the finding resolves it but grows the ignore count past
	// the captured budget of zero, so the gate must still fail.
	suppressed := strings.Replace(leakSrc, "\t\treturn true",
		"\t\t//tempagglint:ignore unlockpath planted for the driver test\n\t\treturn true", 1)
	if err := os.WriteFile(filepath.Join(dir, "leak", "leak.go"), []byte(suppressed), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "-baseline", captured, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("ignore-count growth = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "ignore directives grew from 0 to 1") {
		t.Fatalf("growth failure does not name the budget:\n%s", errOut.String())
	}
}

// TestSuppressionAudit is the negative test for the ignore hygiene
// rules: a reasonless directive and a stale directive each exit 2.
func TestSuppressionAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go list")
	}
	t.Run("reasonless", func(t *testing.T) {
		src := strings.Replace(leakSrc, "\t\treturn true",
			"\t\t//tempagglint:ignore unlockpath\n\t\treturn true", 1)
		dir := writeTempModule(t, map[string]string{"leak/leak.go": src})
		var out, errOut bytes.Buffer
		if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 2 {
			t.Fatalf("reasonless ignore = %d, want 2\n%s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(errOut.String(), "without a reason") {
			t.Fatalf("audit failure does not mention the missing reason:\n%s", errOut.String())
		}
	})
	t.Run("stale", func(t *testing.T) {
		src := strings.Replace(leakSrc, "\tmu.Unlock()",
			"\t//tempagglint:ignore unlockpath nothing is flagged here anymore\n\tmu.Unlock()", 1)
		dir := writeTempModule(t, map[string]string{"leak/leak.go": src})
		var out, errOut bytes.Buffer
		code := run([]string{"-C", dir, "./..."}, &out, &errOut)
		if code != 2 {
			t.Fatalf("stale ignore = %d, want 2\n%s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(errOut.String(), "stale tempagglint:ignore") {
			t.Fatalf("audit failure does not mention staleness:\n%s", errOut.String())
		}
	})
}

// TestJSONOutput checks the machine-readable mode: diagnostics come out
// as a JSON array with module-relative file paths.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("drives go list")
	}
	dir := writeTempModule(t, map[string]string{"leak/leak.go": leakSrc})
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("-json with planted violation = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	var diags []struct {
		File, Analyzer, Message string
		Line, Col               int
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "unlockpath" || d.File != "leak/leak.go" || d.Line == 0 {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}
}
