// Package experiments reproduces the paper's evaluation (§III): the
// feature-size sweep of Fig. 4, the offline- and online-HID attack
// campaigns of Figs. 5 and 6, and the IPC overhead table (Table I). Each
// experiment runs simulated machines, each reset to a just-built state
// before its run, profiles them through the PMU sampler, and feeds
// labelled traces to the HID detectors.
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
// setting (the golden determinism tests enforce this). Every pool task
// and sequential driver runs on a machine from the process's machine
// pool (vm.Get), reset in place before each run, and puts it back when
// it returns; a task copies out what it keeps before then.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Load bases for a scenario machine's target and attack images.
const (
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
	// Sinks are the run's telemetry sinks, each optional. The recorder
	// is attached to every machine the drivers build (and to the worker
	// pools): each core streams typed events into it. Per-kind event
	// totals stay deterministic for any Workers value; ring *contents*
	// interleave. The registry accumulates named counters (pool stats,
	// end-of-run PMU publication) for the run manifest, and the tracker
	// per-pool campaign progress. Nil sinks keep the scheduler on its
	// nil-check-only fast path.
	sched.Sinks
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
	return sched.WithSinks(base, cfg.Sinks, pool)
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

// machine resets m (a zero Machine is valid) into the simulated computer
// every run uses, with ASLR seeded for run-to-run layout variation.
func (cfg Config) machine(m *vm.Machine, seed int64) {
	mc := vm.DefaultConfig()
	mc.CPU = cfg.CPU
	mc.ASLR = true
	mc.ASLRSeed = seed
	mc.Telemetry = cfg.Telemetry
	m.Reset(mc)
	if cfg.Telemetry != nil {
		// Annotate each mapped image: if it carries the covert-channel
		// probe array, register its (ASLR-slid) window with this core.
		m.OnLoad = func(name string, img *isa.Image) {
			spectre.AnnotateProbe(m.CPU, img)
		}
	}
}

// mapMachines is sched.Map over the named pool with one machine per
// task: a task runs fn on a machine from the process's pool (vm.Get) and
// puts it back (vm.Put) when fn returns. Which machine a task gets
// depends on scheduling, so fn resets it before its run, as every run
// kind does, and copies out what it keeps before it returns.
func mapMachines[T any](cfg Config, pool string, n int, fn func(ctx context.Context, m *vm.Machine, task int) (T, error)) ([]T, error) {
	return sched.Map(cfg.ctx(pool), cfg.workers(), n, func(ctx context.Context, task int) (T, error) {
		m := vm.Get()
		v, err := fn(ctx, m, task)
		vm.Put(m)
		return v, err
	})
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

// benignMachine resets m and starts the workload host on it with a
// benign argument.
func (cfg Config) benignMachine(m *vm.Machine, w mibench.Workload, seed int64) error {
	mod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", w.Name, err)
	}
	cfg.machine(m, seed)
	m.Register(w.Name, mod, rop.HostBase)
	if _, err := m.Load(w.Name); err != nil {
		return err
	}
	if _, err := m.SetArg([]byte("benign")); err != nil {
		return err
	}
	return m.Start(w.Name)
}

// benignRun profiles one workload host with a benign argument on m
// (reset first) and returns its samples; m is left finished (for
// counters/IPC).
func (cfg Config) benignRun(m *vm.Machine, w mibench.Workload, seed int64) ([]pmu.Sample, error) {
	if err := cfg.benignMachine(m, w, seed); err != nil {
		return nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("experiments: benign %s: %w", w.Name, err)
	}
	cfg.publishBlocks(m)
	return samples, nil
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

// module assembles the attack binary this spec describes, aimed at the
// secretLen-byte __secret of target. A non-empty resume is the host entry
// the binary EXECs once the leak is done (CR-Spectre's cloak).
func (a AttackSpec) module(target *isa.Image, secretLen int, resume string) (*isa.Module, error) {
	perturbAsm := perturb.None()
	if a.Perturb != nil {
		perturbAsm = a.Perturb.Asm()
	}
	secret, ok := target.Symbol("__secret")
	if !ok {
		return nil, errors.New("target holds no __secret")
	}
	return spectre.Config{
		Variant:        a.Variant,
		TargetAddr:     secret,
		SecretLen:      secretLen,
		PerturbAsm:     perturbAsm,
		ProbeDelay:     a.ProbeDelay,
		Rounds:         a.Rounds,
		HistoryMatched: a.HistoryMatched,
		ResumePath:     resume,
	}.Module()
}

// standaloneMachine resets m into the traditional-Spectre machine
// (Fig. 2b) and starts it: the attack as its own application against a
// separate secret-holder image.
func (cfg Config) standaloneMachine(m *vm.Machine, spec AttackSpec, seed int64) error {
	cfg.machine(m, seed)
	m.Register("target", holderModule(cfg.Secret), targetBase)
	img, err := m.Load("target")
	if err != nil {
		return err
	}
	mod, err := spec.module(img, len(cfg.Secret), "")
	if err != nil {
		return fmt.Errorf("experiments: assemble attack: %w", err)
	}
	m.Register("spectre", mod, attackBase)
	if _, err := m.Load("spectre"); err != nil {
		return err
	}
	return m.Start("spectre")
}

// standaloneRun profiles the standalone attack — the paper's
// "traditional Spectre" baseline — on m; m is left finished (its Output
// carries the recovered bytes).
func (cfg Config) standaloneRun(m *vm.Machine, spec AttackSpec, seed int64) ([]pmu.Sample, error) {
	if err := cfg.standaloneMachine(m, spec, seed); err != nil {
		return nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("experiments: standalone spectre: %w", err)
	}
	cfg.publishBlocks(m)
	return samples, nil
}

// CRResult reports one CR-Spectre campaign run. Machine is the finished
// machine; a run on a pooled machine (vm.Get) leaves it valid only until
// its task returns the machine to the pool.
type CRResult struct {
	Samples    []pmu.Sample
	Recovered  string // bytes the covert channel produced
	Machine    *vm.Machine
	Injected   bool // the ROP chain exec'd the attack binary
	ChainWords int  // length of the injected ROP chain in stack words
}

// crMachine resets m into the CR-Spectre machine (Fig. 2c) and starts
// it: the host loaded, the attack binary assembled against the host's
// secret, and the overflow payload built from the host's gadgets set as
// its argument. Once running, the hijacked host EXECs the attack binary,
// which leaks the secret and then resumes the host workload under whose
// cloak it ran. It returns the injected chain's length in stack words.
func (cfg Config) crMachine(m *vm.Machine, w mibench.Workload, spec AttackSpec, seed int64) (int, error) {
	hostMod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
	if err != nil {
		return 0, err
	}
	cfg.machine(m, seed)
	m.Register(w.Name, hostMod, rop.HostBase)
	hostImg, err := m.Load(w.Name)
	if err != nil {
		return 0, err
	}
	attMod, err := spec.module(hostImg, len(cfg.Secret), w.Name+"#workload_entry")
	if err != nil {
		return 0, fmt.Errorf("experiments: assemble cr-spectre against %s: %w", w.Name, err)
	}
	m.Register("crspectre", attMod, attackBase)

	plan, err := rop.PlanInjection(gadget.ScanAndCatalog(hostImg, 3), "crspectre", nil)
	if err != nil {
		return 0, fmt.Errorf("experiments: rop plan: %w", err)
	}
	plan.Emit(cfg.Telemetry)
	if _, err := m.SetArg(plan.Payload); err != nil {
		return 0, err
	}
	if err := m.Start(w.Name); err != nil {
		return 0, err
	}
	return plan.Chain.Len(), nil
}

// injected reports whether m's ROP chain EXECed the attack binary.
func injected(m *vm.Machine) bool {
	return slices.Contains(m.ExecLog, "crspectre")
}

// crRun profiles the full CR-Spectre flow on m, reset first; m is left
// finished (its Output carries the leaked bytes).
func (cfg Config) crRun(m *vm.Machine, w mibench.Workload, spec AttackSpec, seed int64) (*CRResult, error) {
	chainWords, err := cfg.crMachine(m, w, spec, seed)
	if err != nil {
		return nil, err
	}
	samples, err := cfg.sampler().Run(m.CPU, cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("experiments: cr run on %s: %w", w.Name, err)
	}
	cfg.publishBlocks(m)
	rec := m.Output.String()
	if len(rec) > len(cfg.Secret) {
		rec = rec[:len(cfg.Secret)]
	}
	return &CRResult{
		Samples:    samples,
		Recovered:  rec,
		Machine:    m,
		Injected:   injected(m),
		ChainWords: chainWords,
	}, nil
}

// RunCR exposes the CR-Spectre flow for the public facade and tools.
func RunCR(cfg Config, w mibench.Workload, spec AttackSpec, seed int64) (*CRResult, error) {
	return cfg.crRun(new(vm.Machine), w, spec, seed)
}

// RunStandalone exposes the traditional-Spectre flow (Fig. 2b) for the
// facade, tools and ablation benchmarks.
func RunStandalone(cfg Config, spec AttackSpec, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	m := new(vm.Machine)
	samples, err := cfg.standaloneRun(m, spec, seed)
	if err != nil {
		return nil, nil, err
	}
	return samples, m, nil
}

// RunStandaloneCoTenant runs the standalone attack while a benign
// workload co-executes on a shared cache hierarchy (vm.CoExec) — the
// realistic noisy-neighbour channel. It returns the attack machine (its
// Output carries the recovered bytes).
func RunStandaloneCoTenant(cfg Config, spec AttackSpec, neighbour mibench.Workload, quantum uint64, seed int64) (*vm.Machine, error) {
	m := new(vm.Machine)
	if err := cfg.standaloneMachine(m, spec, seed); err != nil {
		return nil, err
	}
	nMod, err := neighbour.HostModule(rop.HostOptions{})
	if err != nil {
		return nil, err
	}
	nm := new(vm.Machine)
	cfg.machine(nm, seed+1)
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
	return cfg.attackEval("cr-spectre", cr.Samples, cfg.Seed+55, benign.Project(cfg.FeatureSize), cfg.Seed+56), nil
}

// Corpora are the two labelled training classes every HID experiment
// starts from, full-width (all 56 events): the benign applications and
// the standalone Spectre variants.
type Corpora struct {
	Benign, Attack *trace.Set
}

// Corpora profiles both training classes at SamplesPerClass: the benign
// class over every workload and background application, the attack
// class over the standalone Spectre variants.
func (cfg Config) Corpora() (*Corpora, error) {
	benign, err := cfg.BenignCorpus(mibench.AllWithBackgrounds(), cfg.SamplesPerClass)
	if err != nil {
		return nil, fmt.Errorf("benign corpus: %w", err)
	}
	attack, err := cfg.AttackCorpus(cfg.SamplesPerClass)
	if err != nil {
		return nil, fmt.Errorf("attack corpus: %w", err)
	}
	return &Corpora{Benign: benign, Attack: attack}, nil
}

// Train returns the HID training set at size monitored features: the
// benign rows, then the attack rows.
func (c *Corpora) Train(size int) ml.Dataset {
	train := c.Benign.Project(size).Data
	train.Append(c.Attack.Project(size).Data)
	return train
}

// BenignCorpus profiles the workload list with per-run noise and layout
// variation until ~total samples are collected (the paper's benign
// class: the hosts plus other applications running on the system).
func (cfg Config) BenignCorpus(workloads []mibench.Workload, total int) (*trace.Set, error) {
	apps := make([]string, len(workloads))
	for i, w := range workloads {
		apps[i] = w.Name
	}
	return cfg.corpus("benign-corpus", 7919, trace.LabelBenign, apps, total,
		func(m *vm.Machine, i int, seed int64) ([]pmu.Sample, error) {
			return cfg.benignRun(m, workloads[i], seed)
		})
}

// AttackCorpus profiles the standalone Spectre variants (the traces the
// HID is trained on; the paper averages over the variant set).
func (cfg Config) AttackCorpus(total int) (*trace.Set, error) {
	variants := spectre.Variants()
	apps := make([]string, len(variants))
	for i, v := range variants {
		apps[i] = "spectre-" + v.String()
	}
	return cfg.corpus("attack-corpus", 104729, trace.LabelAttack, apps, total,
		func(m *vm.Machine, i int, seed int64) ([]pmu.Sample, error) {
			return cfg.standaloneRun(m, AttackSpec{Variant: variants[i]}, seed)
		})
}

// corpus collects ~total samples labelled label from one source per app,
// sharing the quota evenly. The sources fan out across the named pool,
// each on a pooled machine reset per run; source i's repetition seeds derive
// from (Seed*salt, i, rep), so the corpus is byte-identical for any
// Workers setting.
func (cfg Config) corpus(pool string, salt int64, label int, apps []string, total int,
	run func(m *vm.Machine, i int, seed int64) ([]pmu.Sample, error)) (*trace.Set, error) {
	set := trace.NewSet(pmu.AllEvents())
	if len(apps) == 0 || total <= 0 {
		return set, nil
	}
	quota := (total + len(apps) - 1) / len(apps)
	parts, err := mapMachines(cfg, pool, len(apps),
		func(ctx context.Context, m *vm.Machine, i int) (*trace.Set, error) {
			part := trace.NewSet(pmu.AllEvents())
			base := sched.DeriveSeed(cfg.Seed*salt, uint64(i))
			got := 0
			for rep := 0; got < quota && rep < 200; rep++ {
				seed := sched.DeriveSeed(base, uint64(rep))
				samples, err := run(m, i, seed)
				if err != nil {
					return nil, err
				}
				sched.ObserveInstrs(ctx, m.CPU.Instret())
				samples = subsample(samples, quota-got)
				part.AddNoisy(apps[i], label, samples, cfg.NoiseSigma, seed)
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

// attackEval builds the evaluation mix for one attack run: its samples,
// labelled attack under app with noise seeded by noiseSeed and projected
// to benign's feature width, mixed with rows drawn from benign (a set
// already projected to the size the detector monitors).
func (cfg Config) attackEval(app string, samples []pmu.Sample, noiseSeed int64, benign *trace.Set, mixSeed int64) *trace.Set {
	set := trace.NewSet(pmu.AllEvents())
	set.AddNoisy(app, trace.LabelAttack, samples, cfg.NoiseSigma, noiseSeed)
	return cfg.evalMix(set.Project(len(benign.Events)), benign, mixSeed)
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
