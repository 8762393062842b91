package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if err := run([]string{"-variant", "nope"}, &out); err == nil {
		t.Error("run with unknown variant succeeded, want error")
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
}
