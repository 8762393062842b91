package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("run with no selection = %v, want errUsage", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("run with an unknown flag succeeded, want parse error")
	}
}
