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

func TestRunBadFlag(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &stdout); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with an unknown flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &stdout); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}
