package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
)

// TestLintCorpusClean: the built-in corpus lints clean, quickly, and
// without ever touching the simulator — the sub-second budget is the
// point of static analysis, so it is enforced here.
func TestLintCorpusClean(t *testing.T) {
	var out strings.Builder
	start := time.Now()
	if err := run([]string{"-v"}, &out); err != nil {
		t.Fatalf("lint failed: %v\n%s", err, out.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("corpus lint took %v, want < 1s", elapsed)
	}
	for _, want := range []string{"spectre/v1-bounds-check", "host/", "speclint:", "0 disagreements"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestJSONFindings: the -json artifact is machine-readable and carries
// the v1 leak finding CI greps for.
func TestJSONFindings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var out strings.Builder
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*analysis.Report
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatalf("findings not valid JSON: %v", err)
	}
	if len(reports) < 5 {
		t.Fatalf("only %d reports", len(reports))
	}
	foundV1Leak := false
	for _, r := range reports {
		if r.Name == "spectre/v1-bounds-check" && len(r.Leaks()) > 0 {
			foundV1Leak = true
		}
	}
	if !foundV1Leak {
		t.Error("JSON reports carry no v1 leak finding")
	}
}

// TestSoakAgreementSmoke: a short -progen soak must come back with zero
// disagreements.
func TestSoakAgreementSmoke(t *testing.T) {
	n := "24"
	if testing.Short() {
		n = "6"
	}
	var out strings.Builder
	if err := run([]string{"-progen", n, "-seed", "3"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), n+" programs, 0 disagreements") {
		t.Errorf("unexpected soak summary:\n%s", out.String())
	}
}

// TestMetricsOutput: -metrics dumps the registry with the corpus
// counters populated.
func TestMetricsOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-metrics"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"speclint.images", "speclint.gadgets", "speclint.findings.leak"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics dump lacks %q:\n%s", want, out.String())
		}
	}
}

func TestUsageError(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"frobnicate"},
		{"scan", "-definitely-not-a-flag"},
		{"rank"},
		{"report"},
	} {
		if err := run(args, &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q = %v, want cli.ErrUsage (exit 2)", args, err)
		}
	}
	for _, args := range [][]string{{"-h"}, {"rank", "-h"}} {
		if err := run(args, &out); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q = %v, want flag.ErrHelp (exit 0)", args, err)
		}
	}
}

// TestNegativeProgen: a negative -progen count, to the lint soak or to
// scan, is a usage error raised before any work, with nothing printed.
func TestNegativeProgen(t *testing.T) {
	for _, args := range [][]string{{"-progen", "-5"}, {"scan", "-progen", "-3"}} {
		var out strings.Builder
		if err := run(args, &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q = %v, want cli.ErrUsage (exit 2)", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q printed:\n%s", args, out.String())
		}
	}
}

// TestJSONDeterministic: the -json artifact and the scan report must be
// byte-identical at any worker count — the satellite invariant CI's
// determinism job diffs.
func TestJSONDeterministic(t *testing.T) {
	dir := t.TempDir()
	var base []byte
	for _, w := range []string{"1", "4", "8"} {
		path := filepath.Join(dir, "lint-"+w+".json")
		var out strings.Builder
		if err := run([]string{"-workers", w, "-json", path}, &out); err != nil {
			t.Fatalf("workers=%s: %v\n%s", w, err, out.String())
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = blob
		} else if string(blob) != string(base) {
			t.Errorf("lint -json differs between -workers 1 and %s", w)
		}
	}
	var scanBase []byte
	for _, w := range []string{"1", "4", "8"} {
		path := filepath.Join(dir, "scan-"+w+".json")
		var out strings.Builder
		if err := run([]string{"scan", "-progen", "12", "-workers", w, "-out", path}, &out); err != nil {
			t.Fatalf("scan workers=%s: %v\n%s", w, err, out.String())
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if scanBase == nil {
			scanBase = blob
		} else if string(blob) != string(scanBase) {
			t.Errorf("scan report differs between -workers 1 and %s", w)
		}
	}
}

// TestScanVerbGate: the scan verb sweeps the full corpus plus generated
// gadgets, the report round-trips through the strict decoder, and the
// planted-over-benign ranking gate holds.
func TestScanVerbGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var out strings.Builder
	if err := run([]string{"scan", "-progen", "24", "-gate", "-out", path}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ranking gate ok") {
		t.Errorf("scan output lacks the gate line:\n%s", out.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.DecodeFindings(blob)
	if err != nil {
		t.Fatalf("scan report rejected by the strict decoder: %v", err)
	}
	confirmed := 0
	for _, f := range rep.Findings {
		if f.Verdict == analysis.VerdictConfirmed {
			if f.Repro == nil {
				t.Errorf("confirmed finding without repro: %+v", f)
			}
			confirmed++
		}
	}
	if confirmed == 0 {
		t.Error("scan confirmed no generated gadget")
	}
	reenc, err := analysis.EncodeFindings(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(reenc) != string(blob) {
		t.Error("decoded report does not re-encode to the same bytes")
	}
}

// TestRankAndReportVerbs: rank prints the top findings of a written
// report, report validates and summarizes it, both reject a missing
// -in, and rank rejects a negative -top before reading the report.
func TestRankAndReportVerbs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var out strings.Builder
	if err := run([]string{"scan", "-progen", "12", "-out", path}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"rank", "-in", path, "-top", "5"}, &out); err != nil {
		t.Fatalf("rank: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "score") || !strings.Contains(out.String(), "5 of") {
		t.Errorf("rank output unexpected:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"report", "-in", path, "-gate"}, &out); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "schema speclint/findings/v2") {
		t.Errorf("report output unexpected:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"rank", "-in", path, "-top", "-1"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("rank -top -1 = %v, want cli.ErrUsage (exit 2)", err)
	}
	if out.Len() != 0 {
		t.Errorf("rank -top -1 printed:\n%s", out.String())
	}
	if err := run([]string{"rank"}, &out); err == nil {
		t.Error("rank without -in accepted")
	}
	if err := run([]string{"report"}, &out); err == nil {
		t.Error("report without -in accepted")
	}
}
