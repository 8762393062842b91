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
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// errSecretWrong reports a completed run that failed to recover the
// planted secret (exit code 2, distinct from operational errors).
var errSecretWrong = errors.New("crspectre: recovered secret does not match")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp): // -h printed the usage
	case errors.Is(err, errSecretWrong):
		os.Exit(2) // the report has said why
	default:
		fmt.Fprintln(os.Stderr, "crspectre:", err)
		os.Exit(1)
	}
}

// run executes the tool against args, writing the report to stdout. It
// is the testable core of main.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("crspectre", flag.ContinueOnError)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a host heap profile to this file on exit")

		host     = fs.String("host", "math", "host workload to hijack (see -list)")
		variant  = fs.String("variant", "v1-bounds-check", "spectre variant: "+strings.Join(repro.Variants(), ", "))
		secret   = fs.String("secret", "SPECTRE_PoC_42", "secret planted in the host")
		perturb  = fs.Bool("perturb", false, "inject Algorithm 2's dynamic perturbations")
		detector = fs.String("detector", "", "score the run with an HID: mlp, nn, lr, svm")
		seed     = fs.Int64("seed", 1, "layout/initialisation seed")
		workers  = fs.Int("workers", 0, "parallel corpus building when -detector is set (0 = all cores)")
		list     = fs.Bool("list", false, "list available hosts and exit")

		traceOut  = fs.String("trace", "", "write a Chrome/Perfetto trace of the run to this file")
		eventsOut = fs.String("trace-events", "", "write the raw JSONL event log to this file")
		manifest  = fs.String("manifest", "", "write a run manifest (config, seeds, build, metrics) to this file")
		obsAddr   = fs.String("obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while running")

		noblocks = fs.Bool("noblocks", false, "disable the superblock tier (single-step through the predecode cache)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Retirements would wrap the ring within ~65k instructions and evict
	// the attack's speculation episodes; keep them as counts.
	h, err := obs.Start(obs.Config{
		Tool: "crspectre", Trace: *traceOut, TraceEvents: *eventsOut, Manifest: *manifest, Obs: *obsAddr,
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

	if *list {
		for _, w := range repro.Workloads() {
			fmt.Fprintln(stdout, w)
		}
		return nil
	}

	rep, err := repro.RunAttack(repro.AttackOptions{
		Host:      *host,
		Variant:   *variant,
		Secret:    *secret,
		Perturbed: *perturb,
		Detector:  *detector,
		Seed:      *seed,
		Workers:   *workers,
		Sinks:     h.Sinks,
		NoBlocks:  *noblocks,
	})
	if err != nil {
		return err
	}

	m := telemetry.NewManifest("crspectre", args)
	m.Seed = *seed
	m.Workers = *workers
	m.Config = map[string]any{
		"host":       *host,
		"variant":    *variant,
		"secret_len": len(*secret),
		"perturb":    *perturb,
		"detector":   *detector,
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
