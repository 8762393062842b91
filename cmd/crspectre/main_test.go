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
	"repro/internal/pmu"
	"repro/internal/telemetry"
)

// TestRunAttackSmoke exercises the full single-attack flow: load the
// host, scan gadgets, inject the chain, leak the secret, and print the
// report. The run must recover the planted secret (otherwise run
// returns errSecretWrong).
func TestRunAttackSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-host", "math", "-secret", "SMOKE_42", "-seed", "7"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		`recovered secret: "SMOKE_42"`,
		"secret correct:   true",
		"injected:         true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"math", "qsort"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing workload %q:\n%s", want, out.String())
		}
	}
}

func TestRunUnknownVariant(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-variant", "nope"}, &out); err == nil || errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with unknown variant = %v, want a plain error (exit 1)", err)
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("run with an unknown flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}

// TestRunObservabilityOutputs: -trace, -trace-events and -manifest each
// write their file and announce it, in that order, before the report.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, events, manifest := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "m.json")
	var out bytes.Buffer
	if err := run([]string{"-seed", "5", "-trace", trace, "-trace-events", events, "-manifest", manifest}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "wrote trace "+trace+" (") ||
		lines[1] != "wrote event log "+events || lines[2] != "wrote manifest "+manifest ||
		!strings.HasPrefix(lines[3], "host:") {
		t.Errorf("wrote lines missing or out of order:\n%s", out.String())
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(trace); err != nil || json.Unmarshal(b, &doc) != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace %s: %v, %d events", trace, err, len(doc.TraceEvents))
	}
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if evs, err := telemetry.ReadJSONL(f); err != nil || len(evs) == 0 {
		t.Errorf("event log: %v, %d events", err, len(evs))
	}
	m, err := telemetry.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "crspectre" || m.RunID == "" || len(m.Events) == 0 {
		t.Errorf("manifest tool %q run %q events %v", m.Tool, m.RunID, m.Events)
	}
	// The attack machine's end-of-run PMU gauges reach the manifest
	// through the run's registry: one per event, and no other pmu. name.
	gauges := 0
	for name := range m.Metrics {
		if strings.HasPrefix(name, "pmu.") {
			gauges++
		}
	}
	for _, e := range pmu.AllEvents() {
		if name := "pmu." + e.String(); m.MetricKinds[name] != "gauge" {
			t.Errorf("manifest lacks the %s gauge (kind %q)", name, m.MetricKinds[name])
		}
	}
	if gauges != int(pmu.NumEvents) {
		t.Errorf("manifest holds %d pmu. metrics, want %d", gauges, pmu.NumEvents)
	}
}
