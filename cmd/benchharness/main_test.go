package main

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

func TestHarnessTable1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "3 | 18 | 20") {
		t.Fatalf("table 1 output wrong:\n%s", b.String())
	}
}

func TestHarnessTable2(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.0505") {
		t.Fatalf("table 2 output wrong:\n%s", b.String())
	}
}

func TestHarnessFigureCSV(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "ablation-span", "-max-size", "1024", "-seeds", "1",
		"-format", "csv"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "figure,series,size,metric,value") {
		t.Fatalf("csv output wrong:\n%s", out)
	}
	if !strings.Contains(out, "ablation-span,") {
		t.Fatalf("csv rows missing:\n%s", out)
	}
}

func TestHarnessFigureTable(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "fig9", "-max-size", "1024", "-seeds", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "== figure-9") {
		t.Fatalf("figure table missing:\n%s", b.String())
	}
}

// The -json report carries per-stage timings for the sweep experiments so
// profiles can be compared across PRs, not just end-to-end medians.
func TestHarnessJSONStageTimings(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-exp", "sweep", "-max-size", "1024", "-seeds", "1", "-json"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiments []struct {
			Metric string `json:"metric"`
			Series []struct {
				Name   string `json:"name"`
				Points []struct {
					Stages map[string]float64 `json:"stages"`
				} `json:"points"`
			} `json:"series"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(b.String()), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	found := false
	for _, e := range report.Experiments {
		for _, s := range e.Series {
			if !strings.Contains(s.Name, "sweep") {
				continue
			}
			for _, p := range s.Points {
				if p.Stages["scan"] > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no sweep point carries a scan stage timing:\n%s", b.String())
	}
}

func TestHarnessErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "bogus"}, &b); err == nil {
		t.Error("unknown experiment must fail")
	}
	if err := run([]string{"-max-size", "10"}, &b); err == nil {
		t.Error("max-size below the smallest Table 3 size must fail")
	}
	if err := run([]string{"-exp", "fig9", "-max-size", "1024", "-seeds", "1",
		"-format", "bogus"}, &b); err == nil {
		t.Error("unknown format must fail")
	}
}

// TestVerifySize: -verify keeps VerifyClaims' own default size (0) unless
// -max-size is on the command line, even when it repeats the default.
func TestVerifySize(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-verify"}, 0},
		{[]string{"-verify", "-max-size", "16384"}, 16384},
		{[]string{"-max-size", "65536", "-verify"}, 65536},
	} {
		fs := flag.NewFlagSet("benchharness", flag.ContinueOnError)
		maxSize := fs.Int("max-size", 1<<16, "")
		fs.Bool("verify", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := verifySize(fs, *maxSize); got != tc.want {
			t.Errorf("%v: verify size %d, want %d", tc.args, got, tc.want)
		}
	}
}
