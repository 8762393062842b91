// Command crspectre runs one end-to-end CR-Spectre attack on the
// simulated platform: it loads a MiBench host with a planted secret,
// scans the host image for ROP gadgets, injects the overflow payload,
// lets the hijacked host EXEC the speculative attack binary, and reports
// what leaked — optionally scoring the run with an HID detector.
//
// Usage:
//
//	crspectre [-host math] [-variant v1-bounds-check] [-secret S]
//	          [-perturb] [-detector mlp] [-seed N] [-workers N]
//	          [-trace t.json] [-trace-events t.jsonl] [-manifest m.json]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// errSecretWrong reports a completed run that failed to recover the
// planted secret.
var errSecretWrong = errors.New("crspectre: recovered secret does not match")

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the tool against args, writing the report to stdout. It
// is the testable core of main.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("crspectre", flag.ContinueOnError)
	// The attack plants and seeds like a campaign run by default.
	def := experiments.DefaultConfig()
	var opts repro.AttackOptions
	// Retirements would wrap the ring within ~65k instructions and evict
	// the attack's speculation episodes; keep them as counts.
	oc := obs.Config{Tool: "crspectre", Exclude: []telemetry.Kind{telemetry.KindRetire}, Stall: 2 * time.Minute}
	fs.StringVar(&oc.CPUProfile, "cpuprofile", "", "write a host CPU profile to this file")
	fs.StringVar(&oc.MemProfile, "memprofile", "", "write a host heap profile to this file on exit")

	fs.StringVar(&opts.Host, "host", "math", "host workload to hijack (see -list)")
	fs.StringVar(&opts.Variant, "variant", "v1-bounds-check", "spectre variant: "+strings.Join(repro.Variants(), ", "))
	fs.StringVar(&opts.Secret, "secret", def.Secret, "secret planted in the host")
	fs.BoolVar(&opts.Perturbed, "perturb", false, "inject Algorithm 2's dynamic perturbations")
	fs.StringVar(&opts.Detector, "detector", "", "score the run with an HID: mlp, nn, lr, svm")
	fs.Int64Var(&opts.Seed, "seed", def.Seed, "layout/initialisation seed")
	fs.IntVar(&opts.Workers, "workers", 0, "parallel corpus building when -detector is set (0 = all cores)")
	list := fs.Bool("list", false, "list available hosts and exit")

	fs.StringVar(&oc.Trace, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	fs.StringVar(&oc.TraceEvents, "trace-events", "", "write the raw JSONL event log to this file")
	fs.StringVar(&oc.Manifest, "manifest", "", "write a run manifest (config, seeds, build, metrics) to this file")
	fs.StringVar(&oc.Obs, "obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while running")

	fs.BoolVar(&opts.NoBlocks, "noblocks", false, "disable the superblock tier (single-step through the predecode cache)")
	if err := cli.Parse(fs, args); err != nil {
		return err
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

	if *list {
		for _, w := range repro.Workloads() {
			fmt.Fprintln(stdout, w)
		}
		return nil
	}

	opts.Sinks = h.Sinks
	rep, err := repro.RunAttack(opts)
	if err != nil {
		return err
	}

	m := telemetry.NewManifest("crspectre", args)
	m.Seed = opts.Seed
	m.Workers = opts.Workers
	m.Config = map[string]any{
		"host":       opts.Host,
		"variant":    opts.Variant,
		"secret_len": len(opts.Secret),
		"perturb":    opts.Perturbed,
		"detector":   opts.Detector,
	}
	if err := h.WriteOutputs(stdout, m); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "host:             %s\n", rep.Host)
	fmt.Fprintf(stdout, "variant:          %s\n", rep.Variant)
	fmt.Fprintf(stdout, "gadgets found:    %d\n", rep.GadgetsFound)
	fmt.Fprintf(stdout, "rop chain words:  %d\n", rep.ChainWords)
	fmt.Fprintf(stdout, "injected:         %t\n", rep.Injected)
	fmt.Fprintf(stdout, "recovered secret: %q\n", rep.Recovered)
	fmt.Fprintf(stdout, "secret correct:   %t\n", rep.SecretCorrect)
	fmt.Fprintf(stdout, "host completed:   %t\n", rep.HostCompleted)
	fmt.Fprintf(stdout, "combined IPC:     %.4f\n", rep.IPC)
	fmt.Fprintf(stdout, "HPC samples:      %d\n", rep.Samples)
	if rep.DetectorName != "" {
		fmt.Fprintf(stdout, "detector (%s):    accuracy %.1f%% -> %s\n",
			rep.DetectorName, 100*rep.DetectionRate, rep.DetectorVerdict)
	}
	if !rep.SecretCorrect {
		return errSecretWrong
	}
	return nil
}
