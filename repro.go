// Package repro is a full-system reproduction of "CR-Spectre:
// Defense-Aware ROP Injected Code-Reuse Based Dynamic Spectre" (Dhavlle
// et al., DATE 2022), built on a deterministic micro-architectural
// simulator written in pure Go.
//
// The platform stack (internal packages, bottom up):
//
//	isa      — 64-bit fixed-width ISA, assembler, linker
//	mem      — paged memory with R/W/X permissions (DEP)
//	cache    — set-associative L1/L2 with latency model and CLFLUSH
//	branch   — PHT / gshare / BTB / RSB predictors
//	cpu      — speculative core: wrong-path episodes whose cache fills
//	           survive the squash (the Spectre vulnerability)
//	vm       — loader (ASLR), syscalls, EXEC chaining
//	gadget   — ROP gadget scanner and chain builder
//	rop      — vulnerable host scaffold and overflow payload builder
//	spectre  — six attack variants: the paper's averaged four (v1, RSB,
//	           spec-store-overflow, BTB) plus v2-cross-train and
//	           v4-store-bypass
//	perturb  — Algorithm 2's defense-aware dynamic perturbations
//	mibench  — MiBench-style host workloads written in the ISA
//	pmu      — 56-event HPC catalogue and interval sampler
//	ml       — MLP / deep NN / logistic regression / linear SVM
//	hid      — offline and online (retraining) detectors
//	trace    — labelled HPC datasets, noise model, CSV
//	experiments — drivers for Fig. 4, Figs. 5/6, Table I
//
// This package exposes one high-level flow: running a single end-to-end
// CR-Spectre attack (RunAttack). cmd/experiments regenerates every
// figure and table of the paper's evaluation.
package repro

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/gadget"
	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// AttackOptions configures a single end-to-end CR-Spectre run.
type AttackOptions struct {
	// Host names the MiBench workload to hijack (default "math").
	Host string
	// Variant selects the speculation primitive, one of
	// "v1-bounds-check", "rsb", "spec-store-overflow", "btb".
	Variant string
	// Secret is the value stored in the host that the attack steals.
	Secret string
	// Perturbed injects Algorithm 2's dynamic perturbation routine.
	Perturbed bool
	// Detector optionally scores the run: one of "mlp","nn","lr","svm".
	// Empty skips detection.
	Detector string
	// Seed randomises layout (ASLR) and the detector's initialisation.
	Seed int64
	// Workers bounds the corpus-building parallelism when a Detector is
	// set (0 = all cores). Results are byte-identical for any value.
	Workers int
	// Sinks are the run's telemetry sinks, each optional. The recorder
	// takes typed micro-architectural events from the attack machine
	// (speculation episodes, cache fills, the RET pivot, covert-channel
	// probes) for trace export; the registry receives the run's
	// end-of-run PMU metrics under the "pmu." prefix plus pool counters,
	// for the run manifest; the tracker aggregates per-pool progress.
	sched.Sinks
	// NoBlocks disables the superblock execution tier (DESIGN.md §11),
	// an escape hatch for triaging tier bugs — results are identical
	// either way, only host throughput changes.
	NoBlocks bool
}

// AttackReport describes what one end-to-end CR-Spectre run did.
type AttackReport struct {
	Host            string
	Variant         string
	GadgetsFound    int     // gadgets discovered in the host image
	ChainWords      int     // words in the injected ROP chain
	Injected        bool    // the chain exec'd the attack binary
	Recovered       string  // bytes leaked through the covert channel
	SecretCorrect   bool    // Recovered equals the planted secret
	HostCompleted   bool    // the host workload still produced its output
	IPC             float64 // combined-run IPC
	Samples         int     // HPC samples the PMU collected
	DetectorName    string
	DetectionRate   float64 // detector accuracy over the run's trace mix
	DetectorVerdict string  // evaded / contested / detected
}

// RunAttack performs the complete CR-Spectre flow on a fresh simulated
// machine: gadget scan, overflow payload, ROP injection, speculative
// leak, host resume — optionally scored by an HID trained on benign
// corpora plus standalone-Spectre traces.
func RunAttack(o AttackOptions) (*AttackReport, error) {
	if o.Host == "" {
		o.Host = "math"
	}
	cfg := experiments.DefaultConfig()
	if o.Secret != "" {
		cfg.Secret = o.Secret
	}
	variant := spectre.V1BoundsCheck
	if o.Variant != "" {
		found := false
		for _, v := range spectre.Variants() {
			if v.String() == o.Variant {
				variant, found = v, true
			}
		}
		if !found {
			return nil, fmt.Errorf("repro: unknown variant %q", o.Variant)
		}
	}
	host, err := mibench.ByName(o.Host)
	if err != nil {
		return nil, err
	}

	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Workers > 0 {
		cfg.Workers = o.Workers
	}
	cfg.Sinks = o.Sinks
	cfg.CPU.NoBlocks = o.NoBlocks
	spec := experiments.AttackSpec{Variant: variant}
	if o.Perturbed {
		pp := perturb.Paper()
		spec.Perturb = &pp
	}
	cr, err := experiments.RunCR(cfg, host, spec, cfg.Seed)
	if err != nil {
		return nil, err
	}

	rep := &AttackReport{
		Host:          o.Host,
		Variant:       variant.String(),
		Injected:      cr.Injected,
		Recovered:     cr.Recovered,
		SecretCorrect: cr.Recovered == cfg.Secret,
		HostCompleted: len(cr.Machine.Output.String()) > len(cfg.Secret),
		IPC:           cr.Machine.CPU.IPC(),
		Samples:       len(cr.Samples),
	}
	img, ok := cr.Machine.Image(o.Host)
	if ok {
		cat := gadget.ScanAndCatalog(img, 3)
		rep.GadgetsFound = len(cat.All())
	}
	rep.ChainWords = cr.ChainWords
	pmu.Publish(o.Metrics, "pmu.", cr.Machine.CPU.Snapshot())

	if o.Detector != "" {
		clf, ok := ml.ByName(o.Detector, cfg.Seed)
		if !ok {
			return nil, fmt.Errorf("repro: unknown detector %q", o.Detector)
		}
		small := cfg
		small.SamplesPerClass = 150
		corp, err := small.Corpora()
		if err != nil {
			return nil, err
		}
		det := hid.New(clf)
		if err := det.Train(corp.Train(cfg.FeatureSize)); err != nil {
			return nil, err
		}
		eval, err := experiments.CREvalSet(small, cr, corp.Benign)
		if err != nil {
			return nil, err
		}
		rep.DetectorName = o.Detector
		rep.DetectionRate = det.Accuracy(eval.Data)
		rep.DetectorVerdict = string(hid.Judge(rep.DetectionRate))
	}
	return rep, nil
}

// Variants lists the implemented Spectre variant names.
func Variants() []string {
	var out []string
	for _, v := range spectre.Variants() {
		out = append(out, v.String())
	}
	return out
}

// Workloads lists the available host workload names (MiBench suite,
// extended members, and background applications).
func Workloads() []string {
	var out []string
	for _, w := range mibench.AllWithBackgrounds() {
		out = append(out, w.Name)
	}
	return out
}
