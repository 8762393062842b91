package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestRunReportSmoke generates a report restricted to two cheap
// sections on a tiny config and checks the markdown artefact.
func TestRunReportSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sub", "REPORT.md")
	var stdout bytes.Buffer
	err := run([]string{
		"-o", out,
		"-samples", "30",
		"-seed", "3",
		"-workers", "2",
		"-sections", "fig4,defense",
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	md, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	text := string(md)
	for _, want := range []string{
		"# CR-Spectre reproduction report",
		"## Fig. 4 — HID accuracy vs feature size",
		"## Defense matrix",
		"## Thresholds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(text, "## Fig. 5") {
		t.Error("-sections fig4,defense still ran the Fig. 5 section")
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Errorf("stdout missing confirmation line:\n%s", stdout.String())
	}
}

func TestRunUnknownSection(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-o", filepath.Join(t.TempDir(), "r.md"), "-sections", "nope"}, &stdout)
	if !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), `unknown section "nope"`) {
		t.Errorf("run with unknown section = %v, want an unknown-section cli.ErrUsage (exit 2)", err)
	}
}

// TestRunSampleCount: a negative -samples, and -samples 0 with a
// selected section that trains a detector, are usage errors raised
// before any work, with nothing on stdout and no report written. The
// defense matrix trains none and still runs on -samples 0.
func TestRunSampleCount(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-samples", "0", "-sections", "fig4"},
		{"-samples", "0", "-sections", "defense,ensemble"},
		{"-samples", "0"},
		{"-samples", "-1", "-sections", "table1"},
	} {
		out := filepath.Join(dir, "bad.md")
		var stdout bytes.Buffer
		if err := run(append([]string{"-o", out}, args...), &stdout); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v = %v, want cli.ErrUsage (exit 2)", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v still ran:\n%s", args, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v wrote a report", args)
		}
	}
	out := filepath.Join(dir, "defense.md")
	var stdout bytes.Buffer
	if err := run([]string{"-o", out, "-samples", "0", "-sections", "defense"}, &stdout); err != nil {
		t.Fatalf("-samples 0 -sections defense: %v", err)
	}
	if md, err := os.ReadFile(out); err != nil || !strings.Contains(string(md), "## Defense matrix") {
		t.Errorf("-samples 0 -sections defense wrote no defense matrix: %v", err)
	}
}

// TestRunAttemptCount: -attempts below 1 with the fig5 or fig6 section
// selected is a usage error raised before any work, with nothing on
// stdout and no report written. A section that plays no attempts still
// runs with it.
func TestRunAttemptCount(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-attempts", "-1", "-samples", "10", "-sections", "fig5"},
		{"-attempts", "0", "-sections", "defense,fig6"},
		{"-attempts", "0"},
	} {
		out := filepath.Join(dir, "bad.md")
		var stdout bytes.Buffer
		if err := run(append([]string{"-o", out}, args...), &stdout); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v = %v, want cli.ErrUsage (exit 2)", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v still ran:\n%s", args, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v wrote a report", args)
		}
	}
	out := filepath.Join(dir, "defense.md")
	var stdout bytes.Buffer
	if err := run([]string{"-o", out, "-attempts", "-1", "-sections", "defense"}, &stdout); err != nil {
		t.Fatalf("-attempts -1 -sections defense: %v", err)
	}
	if md, err := os.ReadFile(out); err != nil || !strings.Contains(string(md), "## Defense matrix") {
		t.Errorf("-attempts -1 -sections defense wrote no defense matrix: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &stdout); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with an unknown flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &stdout); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}
