package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// TestRunAttackOutputs drives the hijack session to its halt: the dump
// shows the ROP frame left dangling, and -trace, -trace-events and
// -manifest each write their file, announced last and in that order.
func TestRunAttackOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, events, manifest := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "m.json")
	var out strings.Builder
	err := run([]string{"-host", "math", "-attack", "-trace", trace, "-trace-events", events, "-manifest", manifest}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"-word ROP payload", "program halted", "_start -> vulnerable_function"} {
		if !strings.Contains(text, want) {
			t.Errorf("session missing %q:\n%s", want, text)
		}
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if n := len(lines); n < 3 || !strings.HasPrefix(lines[n-3], "wrote trace "+trace+" (") ||
		lines[n-2] != "wrote event log "+events || lines[n-1] != "wrote manifest "+manifest {
		t.Errorf("session did not end with the wrote lines, in order:\n%s", text)
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
	if m.Tool != "simdbg" || m.RunID == "" || m.Events["rop_plan"] != 1 || m.Events["ret_pivot"] == 0 || m.Config["attack"] != true {
		t.Errorf("manifest tool %q run %q events %v config %v", m.Tool, m.RunID, m.Events, m.Config)
	}
}

// TestRunStopsOnBudget: a session that runs out of budget still dumps
// its state, and returns the stop as an error (exit 1).
func TestRunStopsOnBudget(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-host", "math", "-budget", "10"}, &out)
	if err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("run = %v, want the budget stop", err)
	}
	if !strings.Contains(out.String(), "\nstopped: ") || !strings.Contains(out.String(), "call stack") {
		t.Errorf("stop not dumped:\n%s", out.String())
	}
}

// TestRunBlocksDump drives the -blocks session: the dump opens with the
// block-cache header, the math workload compiled blocks, its loops exit
// through conditional branches and its output calls through SYSCALL,
// each exit printed by its mnemonic.
func TestRunBlocksDump(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-host", "math", "-blocks"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	var compiled int
	_, header, ok := strings.Cut(text, "\nblock cache: ")
	if !ok {
		t.Fatalf("no block cache header:\n%s", text)
	}
	if _, err := fmt.Sscanf(header, "%d compiled", &compiled); err != nil || compiled == 0 {
		t.Errorf("block cache header %q: %d compiled (%v)", strings.SplitN(header, "\n", 2)[0], compiled, err)
	}
	var cond, syscall bool
	hitsCol := -1
	for _, line := range strings.Split(text, "\n") {
		_, rest, ok := strings.Cut(line, " exit ")
		if !ok {
			continue
		}
		op, known := isa.OpByName(strings.Fields(rest)[0])
		cond = cond || known && op.IsCondBranch()
		syscall = syscall || known && op == isa.SYSCALL
		// The exit column is wide enough that every row's hits column
		// lines up.
		col := strings.Index(line, " hits ")
		if hitsCol < 0 {
			hitsCol = col
		}
		if col != hitsCol {
			t.Errorf("hits at column %d, want %d: %q", col, hitsCol, line)
		}
	}
	if !cond {
		t.Errorf("no block exits through a conditional branch:\n%s", text)
	}
	if !syscall {
		t.Errorf("no block exits through syscall:\n%s", text)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if err := run([]string{"-host", "nope"}, &out); err == nil || errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown host = %v, want a plain error (exit 1)", err)
	}
}
