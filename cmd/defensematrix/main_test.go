package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestRunGridAgreesWithGroundTruth: the driver is an acceptance gate —
// a clean run must print both tables, contain no (!) mismatch marker,
// and return nil.
func TestRunGridAgreesWithGroundTruth(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "11"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "scenario") || !strings.Contains(s, "variant × mitigation") {
		t.Fatalf("missing a table:\n%s", s)
	}
	if strings.Contains(s, "(!)") {
		t.Fatalf("grid disagrees with ground truth:\n%s", s)
	}
	for _, want := range []string{"v1-bounds-check", "v2-cross-train", "v4-store-bypass", "rsb", "retpoline", "ssbd"} {
		if !strings.Contains(s, want) {
			t.Errorf("grid missing %q:\n%s", want, s)
		}
	}
}

// TestRunWritesCSVGrids: -csv must materialize both grids, and the
// variant grid must carry one row per (variant, mitigation) cell, all
// agreeing.
func TestRunWritesCSVGrids(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-csv", dir}, &out); err != nil {
		t.Fatalf("run -csv: %v\n%s", err, out.String())
	}
	dm, err := os.ReadFile(filepath.Join(dir, "defensematrix.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(dm), "scenario,attack_succeeds,stage,detail\n") {
		t.Errorf("defensematrix.csv header wrong: %q", strings.SplitN(string(dm), "\n", 2)[0])
	}
	vm, err := os.ReadFile(filepath.Join(dir, "variantmatrix.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(vm)), "\n")
	if len(lines) != 1+4*7 {
		t.Errorf("variantmatrix.csv has %d rows, want header + 28 cells", len(lines)-1)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",true,") && !strings.Contains(line, ",false,") {
			t.Errorf("malformed cell row %q", line)
		}
		fields := strings.Split(line, ",")
		if fields[4] != "true" {
			t.Errorf("cell disagrees with ground truth: %q", line)
		}
	}
}

// TestRunBadFlagAndUnwritableDir: flag errors and filesystem errors
// surface as errors, not panics or silent truncation.
func TestRunBadFlagAndUnwritableDir(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if err := run([]string{"-csv", filepath.Join(t.TempDir(), "missing", "deeper")}, &out); err == nil || errors.Is(err, cli.ErrUsage) {
		t.Errorf("unwritable csv dir = %v, want a plain error (exit 1)", err)
	}
}
