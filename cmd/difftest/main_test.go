package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

func TestRunFixedCount(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-programs", "48", "-workers", "4", "-seed", "9"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "divergences: 0") {
		t.Fatalf("missing clean summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "48 programs") {
		t.Fatalf("did not run the requested program count:\n%s", out.String())
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	summary := func(workers string) string {
		var out strings.Builder
		if err := run([]string{"-programs", "32", "-workers", workers, "-seed", "5"}, &out); err != nil {
			t.Fatalf("run -workers %s: %v", workers, err)
		}
		s := out.String()
		// Strip the wall-clock field; everything else must be identical.
		return s[:strings.LastIndex(s, " instr pairs")]
	}
	if a, b := summary("1"), summary("8"); a != b {
		t.Fatalf("summaries differ across worker counts:\n%q\n%q", a, b)
	}
}

func TestSelftest(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-selftest"}, &out); err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "minimized to") {
		t.Fatalf("selftest did not report minimization:\n%s", out.String())
	}
}

func TestSoakModeRespectsDeadline(t *testing.T) {
	var out strings.Builder
	// ~0.6s soak: enough for at least one wave, far under test timeout.
	if err := run([]string{"-minutes", "0.01", "-workers", "4"}, &out); err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "divergences: 0") {
		t.Fatalf("soak summary missing:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}

func TestReproFileUnwritableStillReports(t *testing.T) {
	// The repro path is only touched on divergence; a clean run must not
	// create it.
	path := filepath.Join(t.TempDir(), "repro.txt")
	var out strings.Builder
	if err := run([]string{"-programs", "8", "-repro", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("repro file created on a clean run (stat err: %v)", err)
	}
}

// TestRunManifest: -manifest writes the run manifest after the clean
// summary and announces it last.
func TestRunManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out strings.Builder
	if err := run([]string{"-programs", "16", "-manifest", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], "divergences: 0") || lines[1] != "wrote manifest "+path {
		t.Errorf("want the summary, then the wrote line:\n%s", out.String())
	}
	m, err := telemetry.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "difftest" || m.RunID == "" || m.Events["task_stop"] != 16 {
		t.Errorf("manifest tool %q run %q events %v", m.Tool, m.RunID, m.Events)
	}
	if len(m.Progress) != 1 || m.Progress[0].Name != "difftest" || m.Progress[0].Done != 16 {
		t.Errorf("manifest progress %+v", m.Progress)
	}
}

// TestReportDivergence drives the one reporter with the selftest
// scenarios' divergences, one per axis: the minimized report reaches
// stdout and the repro file alike, and the returned error names the
// axis — also when the repro file cannot be written.
func TestReportDivergence(t *testing.T) {
	cfg := cpu.DefaultConfig()
	lockProg, lockPre, _, err := brokenFastPathScenario()
	if err != nil {
		t.Fatal(err)
	}
	lockRes, err := oracle.RunProgram(lockProg, cfg, 100_000, lockPre)
	if err != nil {
		t.Fatal(err)
	}
	tierProg, tierPre, err := brokenTierScenario()
	if err != nil {
		t.Fatal(err)
	}
	tierRes, err := oracle.RunTierDiff(tierProg, cfg, 100_000, selftestSlice, tierPre)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                        string
		r                           shardResult
		div                         *oracle.Divergence
		ax                          axis
		head, wantErr, wantReproErr string
	}{
		{
			"lockstep", shardResult{seed: 11, config: "baseline", cfg: cfg, prog: lockProg},
			lockRes.Div, lockstepAxis(100_000, lockPre),
			"DIVERGENCE seed=11 config=baseline\n",
			"difftest: divergence on seed 11 (config baseline)",
			"difftest: divergence found, and writing repro failed: ",
		},
		{
			"tier", shardResult{seed: 12, config: "baseline", cfg: cfg, prog: tierProg},
			tierRes.Div, tierAxis(100_000, selftestSlice, tierPre),
			"TIER DIVERGENCE seed=12 config=baseline (blocks vs single-step)\n",
			"difftest: block-tier divergence on seed 12 (config baseline)",
			"difftest: tier divergence found, and writing repro failed: ",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.div == nil {
				t.Fatal("selftest scenario did not diverge")
			}
			path := filepath.Join(t.TempDir(), "repro.txt")
			var out strings.Builder
			err := reportDivergence(&out, path, tc.r, tc.div, tc.ax)
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("error = %v, want %q", err, tc.wantErr)
			}
			report := out.String()
			if !strings.HasPrefix(report, tc.head+tc.div.String()+"\nminimized to ") {
				t.Errorf("report:\n%s", report)
			}
			if b, err := os.ReadFile(path); err != nil || string(b) != report {
				t.Errorf("repro file (%v) differs from stdout:\n%s", err, b)
			}

			out.Reset()
			err = reportDivergence(&out, filepath.Join(path, "unwritable"), tc.r, tc.div, tc.ax)
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantReproErr) || out.String() != report {
				t.Errorf("unwritable repro: error %v, report changed: %t", err, out.String() != report)
			}
		})
	}
}
