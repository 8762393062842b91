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
//	spectre  — four attack variants (v1, RSB, spec-store-overflow, BTB)
//	perturb  — Algorithm 2's defense-aware dynamic perturbations
//	mibench  — MiBench-style host workloads written in the ISA
//	pmu      — 56-event HPC catalogue and interval sampler
//	ml       — MLP / deep NN / logistic regression / linear SVM
//	hid      — offline and online (retraining) detectors
//	trace    — labelled HPC datasets, noise model, CSV
//	experiments — drivers for Fig. 4, Figs. 5/6, Table I
//
// This package exposes the high-level flows: running a single end-to-end
// CR-Spectre attack (RunAttack) and regenerating every figure and table
// of the paper's evaluation (Fig4, Fig5, Fig6, Table1).
package repro

import (
	"fmt"

	"repro/internal/defense"
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

// Options configures the experiment drivers. The zero value is usable:
// unset fields fall back to the defaults of the paper-scale pipeline
// (feature size 4, 10 attempts, all four classifiers).
type Options struct {
	// FeatureSize is the number of monitored HPC features (paper: 4).
	FeatureSize int
	// SamplesPerClass sizes the training corpora (paper: 2000).
	SamplesPerClass int
	// Attempts is the number of attack attempts per campaign (paper: 10).
	Attempts int
	// Interval is the PMU sampling period in cycles.
	Interval uint64
	// Seed drives every stochastic component; equal seeds reproduce
	// results bit-for-bit.
	Seed int64
	// Secret is the value the attack steals.
	Secret string
	// NoiseSigma is the relative system-noise jitter applied to samples.
	NoiseSigma float64
	// Classifiers selects detector families from {"mlp","nn","lr","svm"}.
	Classifiers []string
	// Reps is the Table I repetition count per cell.
	Reps int
	// Workers bounds the experiment engine's parallelism (0 = all
	// cores). Results are byte-identical for any value.
	Workers int
}

func (o Options) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	if o.FeatureSize > 0 {
		cfg.FeatureSize = o.FeatureSize
	}
	if o.SamplesPerClass > 0 {
		cfg.SamplesPerClass = o.SamplesPerClass
	}
	if o.Attempts > 0 {
		cfg.Attempts = o.Attempts
	}
	if o.Interval > 0 {
		cfg.Interval = o.Interval
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Secret != "" {
		cfg.Secret = o.Secret
	}
	if o.NoiseSigma > 0 {
		cfg.NoiseSigma = o.NoiseSigma
	}
	if len(o.Classifiers) > 0 {
		cfg.Classifiers = o.Classifiers
	}
	if o.Reps > 0 {
		cfg.Reps = o.Reps
	}
	if o.Workers > 0 {
		cfg.Workers = o.Workers
	}
	return cfg
}

// Result and row types of the experiment drivers.
type (
	// Fig4Row is one bar of the feature-size sweep.
	Fig4Row = experiments.Fig4Row
	// CampaignResult holds both panels of a Fig. 5/6 campaign.
	CampaignResult = experiments.CampaignResult
	// AttemptPoint is one plotted accuracy point.
	AttemptPoint = experiments.AttemptPoint
	// Table1Row is one benchmark row of the IPC overhead table.
	Table1Row = experiments.Table1Row
)

// Fig4 regenerates the paper's Fig. 4 (HID accuracy vs feature size).
func Fig4(o Options) ([]Fig4Row, error) { return experiments.Fig4(o.config()) }

// Fig5 regenerates Fig. 5 (offline-type HID vs Spectre and CR-Spectre).
func Fig5(o Options) (*CampaignResult, error) { return experiments.Fig5(o.config()) }

// Fig6 regenerates Fig. 6 (online-type HID vs Spectre and CR-Spectre).
func Fig6(o Options) (*CampaignResult, error) { return experiments.Fig6(o.config()) }

// Table1 regenerates Table I (IPC overhead per benchmark).
func Table1(o Options) ([]Table1Row, error) { return experiments.Table1(o.config()) }

// Extension-experiment result types.
type (
	// LatencyRow reports an online detector's adaptation speed.
	LatencyRow = experiments.LatencyRow
	// RecycleRow is one phase of the variant-recycling experiment.
	RecycleRow = experiments.RecycleRow
	// DefenseRow pairs a defense posture with the attack's outcome.
	DefenseRow = defense.MatrixRow
)

// DetectionLatency measures how many observe/retrain rounds the online
// HID needs to catch a fresh perturbation variant.
func DetectionLatency(o Options, maxBatches int) ([]LatencyRow, error) {
	return experiments.DetectionLatency(o.config(), maxBatches)
}

// VariantRecycling runs the bounded-memory (sliding window) HID
// experiment: a once-caught variant evades again after its traces age
// out of the window.
func VariantRecycling(o Options, window int) ([]RecycleRow, error) {
	return experiments.VariantRecycling(o.config(), window)
}

// DefenseMatrix evaluates the attack chain against the canonical defense
// postures (DEP, canary, ASLR, §IV countermeasures, speculation
// defenses) with and without the published info-leak bypasses.
func DefenseMatrix(seed int64) ([]DefenseRow, error) {
	return defense.Matrix(seed)
}

// AlarmRow reports a run-level alarm policy's quality.
type AlarmRow = experiments.AlarmRow

// RunLevelDetection evaluates run-level alarm policies against a
// dilution-tuned CR-Spectre stream: pointwise accuracy collapses there,
// but counting suspicious samples per run restores detection.
func RunLevelDetection(o Options, crRuns int) ([]AlarmRow, error) {
	return experiments.RunLevelDetection(o.config(), nil, crRuns)
}

// EnsembleRow compares detector families and their committee.
type EnsembleRow = experiments.EnsembleRow

// EnsembleComparison scores each classifier family and their
// majority-vote committee against an evading CR-Spectre stream at two
// feature sizes.
func EnsembleComparison(o Options) ([]EnsembleRow, error) {
	return experiments.EnsembleComparison(o.config())
}

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
	if o.Secret == "" {
		o.Secret = "SPECTRE_PoC_42"
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

	cfg := experiments.DefaultConfig()
	cfg.Secret = o.Secret
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
		SecretCorrect: cr.Recovered == o.Secret,
		HostCompleted: len(cr.Machine.Output.String()) > len(o.Secret),
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
