package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/telemetry"
)

// TestRunFig4Smoke drives the CLI end-to-end on a tiny config: parse
// flags, build corpora through the worker pool, train, render, and
// write the CSV artefact, the trace and the manifest.
func TestRunFig4Smoke(t *testing.T) {
	dir := t.TempDir()
	trace, manifest := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	var out bytes.Buffer
	err := run([]string{
		"-fig", "4",
		"-samples", "30",
		"-seed", "3",
		"-workers", "2",
		"-csvdir", dir,
		"-trace", trace,
		"-manifest", manifest,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "Fig 4") {
		t.Errorf("missing section header in output:\n%s", text)
	}
	if !strings.Contains(text, "mlp") && !strings.Contains(text, "%") {
		t.Errorf("no accuracy table rendered:\n%s", text)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatalf("fig4.csv not written: %v", err)
	}
	if lines := bytes.Count(csv, []byte("\n")); lines < 2 {
		t.Errorf("fig4.csv has %d lines, want at least a header and a row", lines)
	}

	if lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n"); len(lines) < 2 ||
		!strings.HasPrefix(lines[len(lines)-2], "wrote trace "+trace+" (") ||
		lines[len(lines)-1] != "wrote manifest "+manifest {
		t.Errorf("run did not end with the wrote lines, in order:\n%s", text)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(trace); err != nil || json.Unmarshal(b, &doc) != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace %s: %v, %d events", trace, err, len(doc.TraceEvents))
	}
	m, err := telemetry.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "experiments" || m.RunID == "" || len(m.Events) == 0 {
		t.Errorf("manifest tool %q run %q events %v", m.Tool, m.RunID, m.Events)
	}
}

func TestRunNoSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with no selection = %v, want cli.ErrUsage (exit 2)", err)
	}
}

// TestRunNegativeSamples: a negative -samples is a usage error raised
// before any section runs, with nothing on stdout.
func TestRunNegativeSamples(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "4", "-samples", "-2"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-samples -2 = %v, want cli.ErrUsage (exit 2)", err)
	}
	if out.Len() != 0 {
		t.Errorf("-samples -2 still ran:\n%s", out.String())
	}
}

// TestRunZeroSamples: -samples 0 is a usage error raised before any
// work, with nothing on stdout, whenever a selected section trains a
// detector; Table I trains none and still runs.
func TestRunZeroSamples(t *testing.T) {
	for _, sel := range [][]string{{"-fig", "4"}, {"-latency"}, {"-table", "1", "-recycle"}, {"-all"}} {
		var out bytes.Buffer
		if err := run(append(sel, "-samples", "0"), &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v -samples 0 = %v, want cli.ErrUsage (exit 2)", sel, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v -samples 0 still ran:\n%s", sel, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-table", "1", "-samples", "0", "-reps", "1", "-workers", "2"}, &out); err != nil {
		t.Fatalf("-table 1 -samples 0: %v", err)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("-table 1 -samples 0 rendered no table:\n%s", out.String())
	}
}

// TestRunCampaignCounts: -attempts below 1 when Fig. 5 or Fig. 6 is
// selected, and a negative -reps when Table I is, are usage errors
// raised before any work, with nothing on stdout. A section that never
// reads the value still runs with it.
func TestRunCampaignCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "6", "-attempts", "-2", "-samples", "10"},
		{"-fig", "5", "-attempts", "0"},
		{"-all", "-attempts", "0"},
		{"-table", "1", "-reps", "-4"},
		{"-latency", "-table", "1", "-reps", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v = %v, want cli.ErrUsage (exit 2)", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v still ran:\n%s", args, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-fig", "4", "-samples", "10", "-attempts", "-2", "-reps", "-4", "-workers", "2"}, &out); err != nil {
		t.Fatalf("-fig 4 -attempts -2 -reps -4: %v", err)
	}
	if !strings.Contains(out.String(), "Fig 4") {
		t.Errorf("-fig 4 -attempts -2 -reps -4 rendered no Fig. 4:\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with an unknown flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}
