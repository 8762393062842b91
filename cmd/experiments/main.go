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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// errUsage marks a bad invocation (exit code 2, like flag errors).
var errUsage = errors.New("experiments: pick -fig 4|5|6, -table 1, -latency, -recycle, -alarms, or -all")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes the tool against args, writing results to stdout. It is
// the testable core of main.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a host heap profile to this file on exit")
		fig        = fs.String("fig", "", "figure to regenerate: 4, 5, 6")
		table      = fs.String("table", "", "table to regenerate: 1")
		latency    = fs.Bool("latency", false, "run the detection-latency extension experiment")
		recycle    = fs.Bool("recycle", false, "run the variant-recycling extension experiment (windowed HID)")
		alarms     = fs.Bool("alarms", false, "run the run-level alarm-policy extension experiment")
		all        = fs.Bool("all", false, "regenerate every figure and table")
		samples    = fs.Int("samples", 400, "training samples per class (paper: 2000)")
		att        = fs.Int("attempts", 10, "attack attempts per campaign")
		seed       = fs.Int64("seed", 1, "pipeline seed")
		reps       = fs.Int("reps", 0, "Table I repetitions per cell (0 = default 3)")
		workers    = fs.Int("workers", 0, "parallel simulated machines (0 = all cores); results are identical for any value")
		csvdir     = fs.String("csvdir", "", "also write CSV files into this directory")

		traceOut  = fs.String("trace", "", "write a Chrome/Perfetto trace of the run to this file")
		eventsOut = fs.String("trace-events", "", "write the raw JSONL event log to this file")
		manifest  = fs.String("manifest", "", "write a run manifest to this file (default <csvdir>/manifest.json when -csvdir is set)")
		obsAddr   = fs.String("obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while running, e.g. 127.0.0.1:9464")

		noblocks = fs.Bool("noblocks", false, "disable the superblock tier (results identical, wall-clock slower)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	manifestPath := *manifest
	if manifestPath == "" && *csvdir != "" {
		manifestPath = filepath.Join(*csvdir, "manifest.json")
	}

	cfg := experiments.DefaultConfig()
	cfg.SamplesPerClass = *samples
	cfg.Attempts = *att
	cfg.Seed = *seed
	cfg.Reps = *reps
	cfg.Workers = *workers
	cfg.CPU.NoBlocks = *noblocks

	// One set of sinks serves every section the invocation runs; the
	// manifest then carries the aggregate metrics and per-kind event
	// totals. Retirements would wrap the ring within ~65k instructions
	// and evict the episode-structure events; keep them as counts.
	h, err := obs.Start(obs.Config{
		Tool: "experiments", Trace: *traceOut, TraceEvents: *eventsOut, Manifest: manifestPath, Obs: *obsAddr,
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		Exclude: []telemetry.Kind{telemetry.KindRetire}, Stall: 2 * time.Minute,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := h.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cfg.Telemetry, cfg.Metrics, cfg.Tracker = h.Recorder, h.Registry, h.Tracker

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
		return errUsage
	}
	if err := experiments.RunCampaign(cfg, campaign, stdout, *csvdir); err != nil {
		return err
	}

	return h.WriteOutputs(stdout, cfg.Manifest("experiments", args))
}
