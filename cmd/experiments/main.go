// Command experiments regenerates the paper's evaluation artefacts:
// Fig. 4 (HID accuracy vs feature size), Fig. 5 (offline-type HID vs
// Spectre / CR-Spectre), Fig. 6 (online-type HID), and Table I (IPC
// overhead). Results print as text tables and, with -csvdir, are also
// written as CSV series ready for plotting.
//
// Usage:
//
//	experiments -all                       # everything, CI-scale
//	experiments -fig 5 -samples 2000       # paper-scale Fig. 5
//	experiments -table 1 -csvdir out/
//	experiments -fig 4 -workers 8          # explicit fan-out width
//
// The -workers flag bounds the experiment engine's parallelism and
// defaults to all cores; any value produces byte-identical results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the tool against args, writing results to stdout. It is
// the testable core of main.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	cfg := experiments.DefaultConfig()
	// One set of sinks serves every section the invocation runs; the
	// manifest then carries the aggregate metrics and per-kind event
	// totals. Retirements would wrap the ring within ~65k instructions
	// and evict the episode-structure events; keep them as counts.
	oc := obs.Config{Tool: "experiments", Exclude: []telemetry.Kind{telemetry.KindRetire}, Stall: 2 * time.Minute}
	fs.StringVar(&oc.CPUProfile, "cpuprofile", "", "write a host CPU profile to this file")
	fs.StringVar(&oc.MemProfile, "memprofile", "", "write a host heap profile to this file on exit")
	var (
		fig     = fs.String("fig", "", "figure to regenerate: 4, 5, 6")
		table   = fs.String("table", "", "table to regenerate: 1")
		latency = fs.Bool("latency", false, "run the detection-latency extension experiment")
		recycle = fs.Bool("recycle", false, "run the variant-recycling extension experiment (windowed HID)")
		alarms  = fs.Bool("alarms", false, "run the run-level alarm-policy extension experiment")
		all     = fs.Bool("all", false, "regenerate every figure and table")
	)
	fs.IntVar(&cfg.SamplesPerClass, "samples", cfg.SamplesPerClass, "training samples per class (paper: 2000)")
	fs.IntVar(&cfg.Attempts, "attempts", cfg.Attempts, "attack attempts per campaign")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "pipeline seed")
	fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "Table I repetitions per cell (0 = default 3)")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "parallel simulated machines (0 = all cores); results are identical for any value")
	csvdir := fs.String("csvdir", "", "also write CSV files into this directory")

	fs.StringVar(&oc.Trace, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	fs.StringVar(&oc.TraceEvents, "trace-events", "", "write the raw JSONL event log to this file")
	fs.StringVar(&oc.Manifest, "manifest", "", "write a run manifest to this file (default <csvdir>/manifest.json when -csvdir is set)")
	fs.StringVar(&oc.Obs, "obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while running, e.g. 127.0.0.1:9464")

	fs.BoolVar(&cfg.CPU.NoBlocks, "noblocks", cfg.CPU.NoBlocks, "disable the superblock tier (results identical, wall-clock slower)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if cfg.SamplesPerClass < 0 {
		return fmt.Errorf("%w: -samples %d is negative", cli.ErrUsage, cfg.SamplesPerClass)
	}
	want := func(s, v string) bool { return *all || strings.TrimSpace(s) == v }
	campaign := experiments.CampaignSpec{
		Fig4:    want(*fig, "4"),
		Fig5:    want(*fig, "5"),
		Fig6:    want(*fig, "6"),
		Latency: *all || *latency,
		Recycle: *all || *recycle,
		Alarms:  *all || *alarms,
		Table1:  want(*table, "1"),
	}
	if !campaign.Any() {
		return fmt.Errorf("%w: pick -fig 4|5|6, -table 1, -latency, -recycle, -alarms, or -all", cli.ErrUsage)
	}
	if cfg.SamplesPerClass == 0 && campaign.Trains() {
		return fmt.Errorf("%w: -samples 0: the selected sections train a detector, which needs at least 1 sample per class (-table 1 alone trains none)", cli.ErrUsage)
	}
	if cfg.Attempts < 1 && campaign.Attacks() {
		return fmt.Errorf("%w: -attempts %d: Fig. 5 and Fig. 6 play at least 1 attack attempt", cli.ErrUsage, cfg.Attempts)
	}
	if cfg.Reps < 0 && campaign.Table1 {
		return fmt.Errorf("%w: -reps %d is negative (0 = default 3)", cli.ErrUsage, cfg.Reps)
	}
	if oc.Manifest == "" && *csvdir != "" {
		oc.Manifest = filepath.Join(*csvdir, "manifest.json")
	}

	h, err := obs.Start(oc)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := h.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cfg.Sinks = h.Sinks

	if err := experiments.RunCampaign(cfg, campaign, stdout, *csvdir); err != nil {
		return err
	}

	return h.WriteOutputs(stdout, cfg.Manifest("experiments", args))
}
