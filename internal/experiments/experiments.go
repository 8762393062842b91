// Package experiments reproduces the paper's evaluation (§III): the
// feature-size sweep of Fig. 4, the offline- and online-HID attack
// campaigns of Figs. 5 and 6, and the IPC overhead table (Table I). Each
// experiment builds fresh simulated machines, profiles them through the
// PMU sampler, and feeds labelled traces to the HID detectors.
//
// Scale note: trace counts, workload sizes and attempt structure follow
// the paper, but sizes are scaled to simulator throughput (documented in
// EXPERIMENTS.md). The *shape* of each result — who wins, the evasion
// thresholds, the degradation trends — is the reproduction target, not
// absolute accuracy percentages on the authors' i5 testbed.
//
// Parallelism: every driver fans its independent machine runs out
// through the internal/sched worker pool, with per-task seeds derived
// via sched.DeriveSeed so results are byte-identical for any Workers
// setting (the golden determinism tests enforce this).
package experiments

import (
	"context"

	"fmt"

	"repro/internal/cpu"
	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Load bases for the three images of a scenario machine.
const (
	hostBase   = 0x100000
	targetBase = 0x300000
	attackBase = 0x600000
)

// Config parameterises every experiment.
type Config struct {
	// FeatureSize is the number of HPC features the HID monitors
	// (the paper settles on 4 for runtime monitoring).
	FeatureSize int
	// Interval is the PMU sampling period in cycles.
	Interval uint64
	// SamplesPerClass is the trace count per class for training corpora
	// (the paper collects 2000; the default here is smaller for CI —
	// raise it via the cmd flags for paper-scale runs).
	SamplesPerClass int
	// Attempts is the number of attack attempts plotted (paper: 10).
	Attempts int
	// Seed drives every stochastic component.
	Seed int64
	// Secret is the value the attack steals.
	Secret string
	// NoiseSigma is the relative system-noise jitter on sampled vectors.
	NoiseSigma float64
	// Budget is the per-run instruction budget.
	Budget uint64
	// CPU configures the simulated core.
	CPU cpu.Config
	// Classifiers lists the detector families to evaluate.
	Classifiers []string
	// Reps is the per-cell repetition count for Table I averaging
	// (the paper iterates 100 times on hardware; layout randomisation
	// is the simulator's run-to-run variation). Zero means 3.
	Reps int
	// Workers bounds the experiment engine's fan-out: the number of
	// simulated machines run concurrently. Zero or negative selects
	// runtime.GOMAXPROCS(0). Results are byte-identical for every
	// value — parallelism never changes the numbers, only the
	// wall-clock.
	Workers int
	// Telemetry, when non-nil, is attached to every machine the drivers
	// build (and to the worker pool): each core streams typed events
	// into the shared recorder. Per-kind event totals stay deterministic
	// for any Workers value; ring *contents* interleave.
	Telemetry *telemetry.Recorder
	// Metrics, when non-nil, accumulates named counters (pool stats,
	// end-of-run PMU publication) for the run manifest.
	Metrics *telemetry.Registry
	// Tracker, when non-nil, aggregates per-pool campaign progress
	// (lifecycle counts, task latencies, instruction throughput) for the
	// obs server's /progress endpoint and the manifest's final progress
	// snapshot. Nil keeps the scheduler on its nil-check-only fast path.
	Tracker *sched.Tracker
	// BaseCtx, when non-nil, is the parent context of every worker pool
	// the drivers spin up — the crspectred daemon's per-job cancellation
	// path (cancel requests and graceful drain propagate through it into
	// sched.Map). Nil keeps context.Background(), the CLI behaviour
	// where interruption means killing the process. Cancellation only
	// changes *whether* a run completes, never its results: a run that
	// finishes is byte-identical with or without a BaseCtx.
	BaseCtx context.Context
}

// workers resolves the configured fan-out width.
func (cfg Config) workers() int { return sched.Workers(cfg.Workers) }

// ctx returns the context experiment drivers hand to the worker pool,
// carrying the configured telemetry sinks plus the named progress pool
// (all nil-safe; an absent tracker carries a nil pool).
func (cfg Config) ctx(pool string) context.Context {
	base := cfg.BaseCtx
	if base == nil {
		base = context.Background()
	}
	return sched.WithSinks(base, sched.Sinks{
		Recorder: cfg.Telemetry, Registry: cfg.Metrics, Pool: cfg.Tracker.Pool(pool),
	})
}

// DefaultConfig returns the configuration used by the cmd tools.
func DefaultConfig() Config {
	return Config{
		FeatureSize:     4,
		Interval:        20_000,
		SamplesPerClass: 400,
		Attempts:        10,
		Seed:            1,
		Secret:          "SPECTRE_PoC_42",
		NoiseSigma:      0.04,
		Budget:          400_000_000,
		CPU:             cpu.DefaultConfig(),
		Classifiers:     []string{"mlp", "nn", "lr", "svm"},
	}
}

// machine builds a fresh simulated computer with ASLR seeded for
// run-to-run layout variation.
func (cfg Config) machine(seed int64) *vm.Machine {
	mc := vm.DefaultConfig()
	mc.CPU = cfg.CPU
	mc.ASLR = true
	mc.ASLRSeed = seed
	mc.Telemetry = cfg.Telemetry
	m := vm.New(mc)
	if cfg.Telemetry != nil {
		// Annotate each mapped image: if it carries the covert-channel
		// probe array, register its (ASLR-slid) window with this core.
		m.OnLoad = func(name string, img *isa.Image) {
			spectre.AnnotateProbe(m.CPU, img)
		}
	}
	return m
}

// sampler profiles the full 56-event catalogue; experiments project to
// the wanted feature size afterwards.
func (cfg Config) sampler() *pmu.Sampler {
	return &pmu.Sampler{Interval: cfg.Interval, Events: pmu.AllEvents()}
}

// publishBlocks folds a finished machine's block-cache counters into the
// metrics registry under "blocks.". Called at every run choke point so
// the manifest reports how much of a campaign the superblock tier
// actually served; Add-only counters keep the totals Workers-invariant.
func (cfg Config) publishBlocks(m *vm.Machine) {
	pmu.PublishBlocks(cfg.Metrics, "blocks.", m.CPU.BlockStats())
}

// benignRun executes one workload host with a benign argument and
// returns its samples plus the finished machine (for counters/IPC).
func (cfg Config) benignRun(w mibench.Workload, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	mod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", w.Name, err)
	}
	m := cfg.machine(seed)
	m.Register(w.Name, mod, hostBase)
	if _, err := m.Load(w.Name); err != nil {
		return nil, nil, err
	}
	if _, err := m.SetArg([]byte("benign")); err != nil {
		return nil, nil, err
	}
	if err := m.Start(w.Name); err != nil {
		return nil, nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: benign %s: %w", w.Name, err)
	}
	cfg.publishBlocks(m)
	return samples, m, nil
}

// holderModule is the standalone-scenario target application holding the
// secret (Fig. 2b's separate victim).
func holderModule(secret string) *isa.Module {
	return isa.MustAssemble(fmt.Sprintf("halt\n.data\n.align 64\n__secret: .asciz %q\n", secret))
}

// AttackSpec bundles the attacker-controlled knobs of one run.
type AttackSpec struct {
	Variant    spectre.Variant
	Perturb    *perturb.Params // nil = no perturbation (plain Spectre)
	ProbeDelay int64           // probe-scan dispersion iterations
	Rounds     int             // voting-receiver rounds (0/1 = single)
	// HistoryMatched enables history-smashed mistraining (v1 only),
	// the counter-move to gshare-style history-indexed predictors.
	HistoryMatched bool
}

func (a AttackSpec) perturbAsm() string {
	if a.Perturb == nil {
		return perturb.None()
	}
	return a.Perturb.Asm()
}

// standaloneRun launches the attack as its own application against a
// separate secret-holder image — the paper's "traditional Spectre"
// baseline (Fig. 2b).
func (cfg Config) standaloneRun(spec AttackSpec, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	m := cfg.machine(seed)
	m.Register("target", holderModule(cfg.Secret), targetBase)
	img, err := m.Load("target")
	if err != nil {
		return nil, nil, err
	}
	att := spectre.Config{
		Variant:        spec.Variant,
		TargetAddr:     img.MustSymbol("__secret"),
		SecretLen:      len(cfg.Secret),
		PerturbAsm:     spec.perturbAsm(),
		ProbeDelay:     spec.ProbeDelay,
		Rounds:         spec.Rounds,
		HistoryMatched: spec.HistoryMatched,
	}
	mod, err := att.Module()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: assemble attack: %w", err)
	}
	m.Register("spectre", mod, attackBase)
	if _, err := m.Load("spectre"); err != nil {
		return nil, nil, err
	}
	if err := m.Start("spectre"); err != nil {
		return nil, nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: standalone spectre: %w", err)
	}
	cfg.publishBlocks(m)
	return samples, m, nil
}

// CRResult reports one CR-Spectre campaign run.
type CRResult struct {
	Samples    []pmu.Sample
	Recovered  string // bytes the covert channel produced
	Machine    *vm.Machine
	Injected   bool // the ROP chain exec'd the attack binary
	ChainWords int  // length of the injected ROP chain in stack words
}

// crRun performs the full CR-Spectre flow (Fig. 2c): load the host,
// scan it for gadgets, build the overflow payload, run — the hijacked
// host EXECs the attack binary, which leaks the host's secret and then
// resumes the host workload under whose cloak it ran.
func (cfg Config) crRun(w mibench.Workload, spec AttackSpec, seed int64) (*CRResult, error) {
	hostMod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
	if err != nil {
		return nil, err
	}
	m := cfg.machine(seed)
	m.Register(w.Name, hostMod, hostBase)
	hostImg, err := m.Load(w.Name)
	if err != nil {
		return nil, err
	}
	att := spectre.Config{
		Variant:        spec.Variant,
		TargetAddr:     hostImg.MustSymbol("__secret"),
		SecretLen:      len(cfg.Secret),
		PerturbAsm:     spec.perturbAsm(),
		ProbeDelay:     spec.ProbeDelay,
		Rounds:         spec.Rounds,
		HistoryMatched: spec.HistoryMatched,
		ResumePath:     w.Name + "#workload_entry",
	}
	attMod, err := att.Module()
	if err != nil {
		return nil, fmt.Errorf("experiments: assemble cr-spectre: %w", err)
	}
	m.Register("crspectre", attMod, attackBase)

	plan, err := rop.PlanInjection(gadget.ScanAndCatalog(hostImg, 3), "crspectre", nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: rop plan: %w", err)
	}
	plan.Emit(cfg.Telemetry)
	if _, err := m.SetArg(plan.Payload); err != nil {
		return nil, err
	}
	if err := m.Start(w.Name); err != nil {
		return nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("experiments: cr run on %s: %w", w.Name, err)
	}
	cfg.publishBlocks(m)
	out := m.Output.String()
	rec := out
	if len(rec) > len(cfg.Secret) {
		rec = rec[:len(cfg.Secret)]
	}
	injected := false
	for _, e := range m.ExecLog {
		if e == "crspectre" {
			injected = true
		}
	}
	return &CRResult{
		Samples:    samples,
		Recovered:  rec,
		Machine:    m,
		Injected:   injected,
		ChainWords: plan.Chain.Len(),
	}, nil
}

// RunCR exposes the CR-Spectre flow for the public facade and tools.
func RunCR(cfg Config, w mibench.Workload, spec AttackSpec, seed int64) (*CRResult, error) {
	return cfg.crRun(w, spec, seed)
}

// RunStandalone exposes the traditional-Spectre flow (Fig. 2b) for the
// facade, tools and ablation benchmarks.
func RunStandalone(cfg Config, spec AttackSpec, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	return cfg.standaloneRun(spec, seed)
}

// RunStandaloneCoTenant runs the standalone attack while a benign
// workload co-executes on a shared cache hierarchy (vm.CoExec) — the
// realistic noisy-neighbour channel. It returns the attack machine (its
// Output carries the recovered bytes).
func RunStandaloneCoTenant(cfg Config, spec AttackSpec, neighbour mibench.Workload, quantum uint64, seed int64) (*vm.Machine, error) {
	m := cfg.machine(seed)
	m.Register("target", holderModule(cfg.Secret), targetBase)
	img, err := m.Load("target")
	if err != nil {
		return nil, err
	}
	att := spectre.Config{
		Variant:        spec.Variant,
		TargetAddr:     img.MustSymbol("__secret"),
		SecretLen:      len(cfg.Secret),
		PerturbAsm:     spec.perturbAsm(),
		ProbeDelay:     spec.ProbeDelay,
		Rounds:         spec.Rounds,
		HistoryMatched: spec.HistoryMatched,
	}
	mod, err := att.Module()
	if err != nil {
		return nil, err
	}
	m.Register("spectre", mod, attackBase)
	if _, err := m.Load("spectre"); err != nil {
		return nil, err
	}
	if err := m.Start("spectre"); err != nil {
		return nil, err
	}

	nMod, err := neighbour.HostModule(rop.HostOptions{})
	if err != nil {
		return nil, err
	}
	nm := cfg.machine(seed + 1)
	// Disjoint base: the shared hierarchy is indexed by machine address.
	nm.Register(neighbour.Name, nMod, 0xA00000)
	co := vm.NewCoExec(m, nm, quantum)
	if err := co.StartNeighbour(neighbour.Name, []byte("bg")); err != nil {
		return nil, err
	}
	if err := co.Run(cfg.Budget); err != nil {
		return nil, err
	}
	return m, nil
}

// CREvalSet builds the detector evaluation mix for one CR run: the
// run's (noisy) samples labelled attack plus a fresh benign batch.
func CREvalSet(cfg Config, cr *CRResult, benign *trace.Set) (*trace.Set, error) {
	crSet := trace.NewSet(pmu.AllEvents())
	crSet.AddNoisy("cr-spectre", trace.LabelAttack, cr.Samples, cfg.NoiseSigma, cfg.Seed+55)
	return cfg.evalMix(crSet.Project(cfg.FeatureSize), benign.Project(cfg.FeatureSize), cfg.Seed+56), nil
}

// BenignCorpus profiles the workload list with per-run noise and layout
// variation until ~total samples are collected (the paper's benign
// class: the hosts plus other applications running on the system). The
// workloads fan out across the worker pool; each workload's repetition
// seeds derive from (Seed, workload index, rep), so the corpus is
// byte-identical for any Workers setting.
func (cfg Config) BenignCorpus(workloads []mibench.Workload, total int) (*trace.Set, error) {
	set := trace.NewSet(pmu.AllEvents())
	if len(workloads) == 0 || total <= 0 {
		return set, nil
	}
	quota := (total + len(workloads) - 1) / len(workloads)
	parts, err := sched.Map(cfg.ctx("benign-corpus"), cfg.workers(), len(workloads),
		func(ctx context.Context, i int) (*trace.Set, error) {
			w := workloads[i]
			part := trace.NewSet(pmu.AllEvents())
			base := sched.DeriveSeed(cfg.Seed*7919, uint64(i))
			got := 0
			for rep := 0; got < quota && rep < 200; rep++ {
				seed := sched.DeriveSeed(base, uint64(rep))
				samples, m, err := cfg.benignRun(w, seed)
				if err != nil {
					return nil, err
				}
				sched.ObserveInstrs(ctx, m.CPU.Instret())
				samples = subsample(samples, quota-got)
				part.AddNoisy(w.Name, trace.LabelBenign, samples, cfg.NoiseSigma, seed)
				got += len(samples)
			}
			return part, nil
		})
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		if err := set.Merge(part); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// AttackCorpus profiles the standalone Spectre variants (the traces the
// HID is trained on; the paper averages over the variant set). Variants
// fan out like BenignCorpus workloads, with per-(variant, rep) derived
// seeds.
func (cfg Config) AttackCorpus(total int) (*trace.Set, error) {
	set := trace.NewSet(pmu.AllEvents())
	variants := spectre.Variants()
	if total <= 0 {
		return set, nil
	}
	quota := (total + len(variants) - 1) / len(variants)
	parts, err := sched.Map(cfg.ctx("attack-corpus"), cfg.workers(), len(variants),
		func(ctx context.Context, i int) (*trace.Set, error) {
			v := variants[i]
			part := trace.NewSet(pmu.AllEvents())
			base := sched.DeriveSeed(cfg.Seed*104729, uint64(i))
			got := 0
			for rep := 0; got < quota && rep < 200; rep++ {
				seed := sched.DeriveSeed(base, uint64(rep))
				samples, m, err := cfg.standaloneRun(AttackSpec{Variant: v}, seed)
				if err != nil {
					return nil, err
				}
				sched.ObserveInstrs(ctx, m.CPU.Instret())
				samples = subsample(samples, quota-got)
				part.AddNoisy("spectre-"+v.String(), trace.LabelAttack, samples, cfg.NoiseSigma, seed)
				got += len(samples)
			}
			return part, nil
		})
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		if err := set.Merge(part); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// subsample keeps at most n samples spread evenly across the run, so a
// long run contributes every execution phase rather than just its first
// intervals.
func subsample(samples []pmu.Sample, n int) []pmu.Sample {
	if n <= 0 {
		return nil
	}
	if len(samples) <= n {
		return samples
	}
	out := make([]pmu.Sample, 0, n)
	step := float64(len(samples)) / float64(n)
	for k := 0; k < n; k++ {
		out = append(out, samples[int(float64(k)*step)])
	}
	return out
}

// evalMix builds a per-attempt evaluation set: the attempt's attack
// samples plus a fresh benign batch at roughly 4:1 attack:benign — the
// system keeps running benign applications while the attack executes, so
// the HID judges a mixed stream. The sampling RNG follows the engine's
// derivation rule (a private stream per call), so concurrent evalMix
// calls from pool tasks never share random state.
func (cfg Config) evalMix(attack *trace.Set, benign *trace.Set, seed int64) *trace.Set {
	out := trace.NewSet(attack.Events)
	_ = out.Merge(attack)
	want := len(attack.Data.Y) / 4
	if want < 1 {
		want = 1
	}
	rng := sched.Rand(seed, 0)
	n := benign.Len()
	for k := 0; k < want && n > 0; k++ {
		i := rng.Intn(n)
		out.Apps = append(out.Apps, benign.Apps[i])
		out.Data.X = append(out.Data.X, benign.Data.X[i])
		out.Data.Y = append(out.Data.Y, benign.Data.Y[i])
	}
	return out
}
