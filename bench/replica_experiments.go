package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/gadget"
	"repro/internal/hid"
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

// The experiment engine keeps its stages private, so the traced run
// re-drives experiments.Table1 and experiments.Fig6 from the public
// functions they are built on, in the engine's order and with its seed
// derivation, and puts a span around each call. The workloads check that
// a replica's CSV equals the engine's byte for byte: that is what makes
// its per-layer numbers numbers of the measured program.

// Load bases the engine uses for a scenario machine's three images.
const (
	hostBase   = 0x100000
	targetBase = 0x300000
	attackBase = 0x600000
)

// observeMachine adds a finished machine's simulated work to the
// counters behind the cpu, cache, branch, vm and pmu metrics.
func observeMachine(tr *tracer, m *vm.Machine, samples int) {
	s := m.CPU.Snapshot()
	b := m.CPU.BlockStats()
	tr.count("vm.machines", 1)
	tr.count("pmu.samples", float64(samples))
	tr.count("pmu.instret", float64(s.Instructions))
	observeCore(tr, s)
	tr.count("cpu.block_hits", float64(b.Hits))
	tr.count("cpu.block_compiled", float64(b.Compiled))
	tr.count("cpu.block_invalidations", float64(b.Invalidations))
}

// observeCore adds one core's counters to the simulated-guard counters.
func observeCore(tr *tracer, s cpu.Snapshot) {
	tr.count("cpu.instret", float64(s.Instructions))
	tr.count("cpu.cycles", float64(s.Cycles))
	tr.count("cpu.squashes", float64(s.Squashes))
	tr.count("cache.l1_accesses", float64(s.L1Accesses))
	tr.count("cache.l1_misses", float64(s.L1Misses))
	tr.count("cache.l2_accesses", float64(s.L2Accesses))
	tr.count("cache.l2_misses", float64(s.L2Misses))
	tr.count("branch.cond", float64(s.CondBranches))
	tr.count("branch.cond_mispredicts", float64(s.CondMispred))
}

// newMachine is the engine's scenario machine: the configured core with
// ASLR seeded per run.
func newMachine(ctx context.Context, tr *tracer, cfg experiments.Config, seed int64) *vm.Machine {
	_, end := tr.span(ctx, "vm.new")
	defer end()
	mc := vm.DefaultConfig()
	mc.CPU = cfg.CPU
	mc.ASLR = true
	mc.ASLRSeed = seed
	return vm.New(mc)
}

func sampler(cfg experiments.Config) *pmu.Sampler {
	return &pmu.Sampler{Interval: cfg.Interval, Events: pmu.AllEvents()}
}

func hostModule(ctx context.Context, tr *tracer, w mibench.Workload, secret string) (*isa.Module, error) {
	_, end := tr.span(ctx, "isa.assemble")
	defer end()
	return w.HostModule(rop.HostOptions{Secret: secret})
}

func attackModule(ctx context.Context, tr *tracer, att spectre.Config) (*isa.Module, error) {
	_, end := tr.span(ctx, "spectre.module")
	defer end()
	return att.Module()
}

func sample(ctx context.Context, tr *tracer, cfg experiments.Config, m *vm.Machine) ([]pmu.Sample, error) {
	_, end := tr.span(ctx, "pmu.sample")
	samples, err := sampler(cfg).Run(m.CPU, cfg.Budget)
	end()
	if err == nil {
		observeMachine(tr, m, len(samples))
	}
	return samples, err
}

// loadAndStart registers, maps and starts one image with an argument.
func loadAndStart(ctx context.Context, tr *tracer, m *vm.Machine, name string, mod *isa.Module, base uint64, arg []byte) (*isa.Image, error) {
	_, end := tr.span(ctx, "vm.load")
	defer end()
	m.Register(name, mod, base)
	img, err := m.Load(name)
	if err != nil {
		return nil, err
	}
	if arg != nil {
		if _, err := m.SetArg(arg); err != nil {
			return nil, err
		}
	}
	return img, m.Start(name)
}

func perturbAsm(a experiments.AttackSpec) string {
	if a.Perturb == nil {
		return perturb.None()
	}
	return a.Perturb.Asm()
}

func benignRun(ctx context.Context, tr *tracer, cfg experiments.Config, w mibench.Workload, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	mod, err := hostModule(ctx, tr, w, cfg.Secret)
	if err != nil {
		return nil, nil, err
	}
	m := newMachine(ctx, tr, cfg, seed)
	if _, err := loadAndStart(ctx, tr, m, w.Name, mod, hostBase, []byte("benign")); err != nil {
		return nil, nil, err
	}
	samples, err := sample(ctx, tr, cfg, m)
	return samples, m, err
}

func standaloneRun(ctx context.Context, tr *tracer, cfg experiments.Config, spec experiments.AttackSpec, seed int64) ([]pmu.Sample, *vm.Machine, error) {
	m := newMachine(ctx, tr, cfg, seed)
	holder, err := func() (*isa.Module, error) {
		_, end := tr.span(ctx, "isa.assemble")
		defer end()
		return isa.Assemble(fmt.Sprintf("halt\n.data\n.align 64\n__secret: .asciz %q\n", cfg.Secret))
	}()
	if err != nil {
		return nil, nil, err
	}
	img, err := func() (*isa.Image, error) {
		_, end := tr.span(ctx, "vm.load")
		defer end()
		m.Register("target", holder, targetBase)
		return m.Load("target")
	}()
	if err != nil {
		return nil, nil, err
	}
	mod, err := attackModule(ctx, tr, spectre.Config{
		Variant:        spec.Variant,
		TargetAddr:     img.MustSymbol("__secret"),
		SecretLen:      len(cfg.Secret),
		PerturbAsm:     perturbAsm(spec),
		ProbeDelay:     spec.ProbeDelay,
		Rounds:         spec.Rounds,
		HistoryMatched: spec.HistoryMatched,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := loadAndStart(ctx, tr, m, "spectre", mod, attackBase, nil); err != nil {
		return nil, nil, err
	}
	samples, err := sample(ctx, tr, cfg, m)
	return samples, m, err
}

func crRun(ctx context.Context, tr *tracer, cfg experiments.Config, w mibench.Workload, spec experiments.AttackSpec, seed int64) (*experiments.CRResult, error) {
	hostMod, err := hostModule(ctx, tr, w, cfg.Secret)
	if err != nil {
		return nil, err
	}
	m := newMachine(ctx, tr, cfg, seed)
	hostImg, err := func() (*isa.Image, error) {
		_, end := tr.span(ctx, "vm.load")
		defer end()
		m.Register(w.Name, hostMod, hostBase)
		return m.Load(w.Name)
	}()
	if err != nil {
		return nil, err
	}
	attMod, err := attackModule(ctx, tr, spectre.Config{
		Variant:        spec.Variant,
		TargetAddr:     hostImg.MustSymbol("__secret"),
		SecretLen:      len(cfg.Secret),
		PerturbAsm:     perturbAsm(spec),
		ProbeDelay:     spec.ProbeDelay,
		Rounds:         spec.Rounds,
		HistoryMatched: spec.HistoryMatched,
		ResumePath:     w.Name + "#workload_entry",
	})
	if err != nil {
		return nil, err
	}
	m.Register("crspectre", attMod, attackBase)

	_, end := tr.span(ctx, "gadget.scan")
	cat := gadget.ScanAndCatalog(hostImg, 3)
	end()
	_, end = tr.span(ctx, "rop.plan")
	plan, err := rop.PlanInjection(cat, "crspectre", nil)
	end()
	if err != nil {
		return nil, err
	}
	err = func() error {
		_, end := tr.span(ctx, "vm.load")
		defer end()
		if _, err := m.SetArg(plan.Payload); err != nil {
			return err
		}
		return m.Start(w.Name)
	}()
	if err != nil {
		return nil, err
	}
	samples, err := sample(ctx, tr, cfg, m)
	if err != nil {
		return nil, err
	}
	rec := m.Output.String()
	if len(rec) > len(cfg.Secret) {
		rec = rec[:len(cfg.Secret)]
	}
	injected := false
	for _, e := range m.ExecLog {
		if e == "crspectre" {
			injected = true
		}
	}
	return &experiments.CRResult{
		Samples: samples, Recovered: rec, Machine: m,
		Injected: injected, ChainWords: plan.Chain.Len(),
	}, nil
}

// table1Replica re-drives experiments.Table1For.
func table1Replica(ctx context.Context, tr *tracer, cfg experiments.Config, workloads []mibench.Workload) ([]experiments.Table1Row, error) {
	avgIPC := func(ctx context.Context, run func(ctx context.Context, seed int64) (float64, error)) (float64, error) {
		reps := cfg.Reps
		if reps <= 0 {
			reps = 3
		}
		vals, err := tmap(ctx, tr, cfg.Workers, reps, func(ctx context.Context, r int) (float64, error) {
			return run(ctx, cfg.Seed+int64(r)*337)
		})
		if err != nil {
			return 0, err
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return sum / float64(reps), nil
	}
	avgCRIPC := func(ctx context.Context, w mibench.Workload, spec experiments.AttackSpec) (float64, error) {
		return avgIPC(ctx, func(ctx context.Context, seed int64) (float64, error) {
			cr, err := crRun(ctx, tr, cfg, w, spec, seed)
			if err != nil {
				return 0, err
			}
			if !cr.Injected {
				return 0, fmt.Errorf("injection failed on %s", w.Name)
			}
			return cr.Machine.CPU.IPC(), nil
		})
	}
	return tmap(ctx, tr, cfg.Workers, len(workloads), func(ctx context.Context, i int) (experiments.Table1Row, error) {
		w := workloads[i]
		row := experiments.Table1Row{Benchmark: w.Name}
		orig, err := avgIPC(ctx, func(ctx context.Context, seed int64) (float64, error) {
			_, m, err := benignRun(ctx, tr, cfg, w, seed)
			if err != nil {
				return 0, err
			}
			return m.CPU.IPC(), nil
		})
		if err != nil {
			return row, err
		}
		row.IPCOriginal = orig
		base, err := avgCRIPC(ctx, w, experiments.AttackSpec{Variant: spectre.V1BoundsCheck})
		if err != nil {
			return row, err
		}
		offV := perturb.Paper()
		off, err := avgCRIPC(ctx, w, experiments.AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &offV})
		if err != nil {
			return row, err
		}
		row.IPCOffline = off
		onV := perturb.Scaled(2)
		onV.Delay = 60
		on, err := avgCRIPC(ctx, w, experiments.AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &onV, ProbeDelay: 40})
		if err != nil {
			return row, err
		}
		row.IPCOnline = on
		if base > 0 {
			row.OverheadOffline = (base - off) / base
			row.OverheadOnline = (base - on) / base
		}
		return row, nil
	})
}

// subsample keeps at most n samples spread evenly across the run.
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

func addNoisy(ctx context.Context, tr *tracer, set *trace.Set, app string, label int, samples []pmu.Sample, sigma float64, seed int64) {
	_, end := tr.span(ctx, "trace.noise")
	set.AddNoisy(app, label, samples, sigma, seed)
	end()
}

// corpus re-drives Config.BenignCorpus (attack false) and
// Config.AttackCorpus (attack true): one pool task per workload or
// variant, each repeating runs until its quota of samples is met.
func corpus(ctx context.Context, tr *tracer, cfg experiments.Config, total int, attack bool) (*trace.Set, error) {
	set := trace.NewSet(pmu.AllEvents())
	workloads := mibench.AllWithBackgrounds()
	variants := spectre.Variants()
	n, seedMul := len(workloads), int64(7919)
	if attack {
		n, seedMul = len(variants), 104729
	}
	if n == 0 || total <= 0 {
		return set, nil
	}
	quota := (total + n - 1) / n
	parts, err := tmap(ctx, tr, cfg.Workers, n, func(ctx context.Context, i int) (*trace.Set, error) {
		part := trace.NewSet(pmu.AllEvents())
		base := sched.DeriveSeed(cfg.Seed*seedMul, uint64(i))
		got := 0
		for rep := 0; got < quota && rep < 200; rep++ {
			seed := sched.DeriveSeed(base, uint64(rep))
			var (
				samples []pmu.Sample
				err     error
				app     string
				label   = trace.LabelBenign
			)
			if attack {
				app, label = "spectre-"+variants[i].String(), trace.LabelAttack
				samples, _, err = standaloneRun(ctx, tr, cfg, experiments.AttackSpec{Variant: variants[i]}, seed)
			} else {
				app = workloads[i].Name
				samples, _, err = benignRun(ctx, tr, cfg, workloads[i], seed)
			}
			if err != nil {
				return nil, err
			}
			samples = subsample(samples, quota-got)
			addNoisy(ctx, tr, part, app, label, samples, cfg.NoiseSigma, seed)
			got += len(samples)
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	_, end := tr.span(ctx, "trace.merge")
	defer end()
	for _, part := range parts {
		if err := set.Merge(part); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func project(ctx context.Context, tr *tracer, s *trace.Set, n int) *trace.Set {
	_, end := tr.span(ctx, "trace.project")
	defer end()
	return s.Project(n)
}

// evalMix re-drives the engine's per-attempt evaluation mix: the
// attempt's attack samples plus benign records at roughly 4:1.
func evalMix(ctx context.Context, tr *tracer, attack, benign *trace.Set, seed int64) *trace.Set {
	_, end := tr.span(ctx, "trace.mix")
	defer end()
	out := trace.NewSet(attack.Events)
	_ = out.Merge(attack)
	want := max(len(attack.Data.Y)/4, 1)
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

// detectorState is one online detector with its attacker's adaptation
// state (the engine's campaignState for the online campaign).
type detectorState struct {
	det        *hid.Online
	variant    perturb.Params
	probeDelay int64
	rng        *rand.Rand
}

func fit(ctx context.Context, tr *tracer, rows int, train func() error) error {
	_, end := tr.span(ctx, "ml.fit")
	start := time.Now()
	err := train()
	tr.count("ml.fit_ns", float64(time.Since(start)))
	end()
	tr.count("ml.fits", 1)
	tr.count("ml.fit_rows", float64(rows))
	return err
}

func newStates(ctx context.Context, tr *tracer, cfg experiments.Config, train ml.Dataset, seedOff int64) ([]*detectorState, error) {
	var states []*detectorState
	for i, name := range cfg.Classifiers {
		clf, ok := ml.ByName(name, cfg.Seed+int64(i)+seedOff)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown classifier %q", name)
		}
		st := &detectorState{
			det:     hid.NewOnline(clf),
			variant: perturb.Paper(),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*97 + seedOff)),
		}
		if err := fit(ctx, tr, train.Len(), func() error { return st.det.Train(train) }); err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return states, nil
}

// score evaluates one detector on an evaluation set and, being online,
// retrains it on the augmented corpus.
func score(ctx context.Context, tr *tracer, st *detectorState, eval ml.Dataset) (float64, error) {
	_, end := tr.span(ctx, "hid.score")
	acc := st.det.Accuracy(eval)
	end()
	rows := st.det.CorpusSize() + eval.Len()
	return acc, fit(ctx, tr, rows, func() error { return st.det.Observe(eval) })
}

// fig6Replica re-drives experiments.Fig6, the online-HID campaign.
func fig6Replica(ctx context.Context, tr *tracer, cfg experiments.Config) (*experiments.CampaignResult, error) {
	sctx, end := tr.span(ctx, "stage.corpus-simulate")
	benign, err := corpus(sctx, tr, cfg, cfg.SamplesPerClass, false)
	if err != nil {
		end()
		return nil, err
	}
	attackTrain, err := corpus(sctx, tr, cfg, cfg.SamplesPerClass, true)
	end()
	if err != nil {
		return nil, err
	}

	sctx, end = tr.span(ctx, "stage.train")
	train := project(sctx, tr, benign, cfg.FeatureSize)
	if err := train.Merge(project(sctx, tr, attackTrain, cfg.FeatureSize)); err != nil {
		end()
		return nil, err
	}
	benignEval := project(sctx, tr, benign, cfg.FeatureSize)
	plainStates, err := newStates(sctx, tr, cfg, train.Data, 0)
	if err != nil {
		end()
		return nil, err
	}
	crStates, err := newStates(sctx, tr, cfg, train.Data, 1000)
	end()
	if err != nil {
		return nil, err
	}

	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}
	variants := spectre.Variants()
	res := &experiments.CampaignResult{Online: true}
	type attemptSims struct {
		samples []pmu.Sample
		machine *vm.Machine
		cr      *experiments.CRResult
	}
	for attempt := 1; attempt <= cfg.Attempts; attempt++ {
		seed := cfg.Seed*1_000_003 + int64(attempt)
		spec := experiments.AttackSpec{Variant: variants[(attempt-1)%len(variants)]}
		crSpecs := make([]experiments.AttackSpec, len(crStates))
		crVariants := make([]perturb.Params, len(crStates))
		for j, st := range crStates {
			crVariants[j] = st.variant
			crSpecs[j] = experiments.AttackSpec{
				Variant:    variants[(attempt-1)%len(variants)],
				Perturb:    &crVariants[j],
				ProbeDelay: st.probeDelay,
			}
		}
		sctx, end = tr.span(ctx, "stage.pmu-sample")
		sims, err := tmap(sctx, tr, cfg.Workers, 1+len(crStates), func(ctx context.Context, t int) (attemptSims, error) {
			if t == 0 {
				samples, m, err := standaloneRun(ctx, tr, cfg, spec, seed)
				return attemptSims{samples: samples, machine: m}, err
			}
			st := crStates[t-1]
			cr, err := crRun(ctx, tr, cfg, host, crSpecs[t-1], seed+int64(len(st.det.Name())))
			return attemptSims{cr: cr}, err
		})
		end()
		if err != nil {
			return nil, err
		}

		sctx, end = tr.span(ctx, "stage.score")
		recovered := sims[0].machine.Output.String() == cfg.Secret
		aSet := trace.NewSet(pmu.AllEvents())
		addNoisy(sctx, tr, aSet, "spectre", trace.LabelAttack, sims[0].samples, cfg.NoiseSigma, seed)
		eval := evalMix(sctx, tr, project(sctx, tr, aSet, cfg.FeatureSize), benignEval, seed)
		for _, st := range plainStates {
			acc, err := score(sctx, tr, st, eval.Data)
			if err != nil {
				end()
				return nil, err
			}
			res.Plain = append(res.Plain, experiments.AttemptPoint{
				Classifier: st.det.Name(), Attempt: attempt, Accuracy: acc,
				Verdict: hid.Judge(acc), Recovered: recovered,
			})
		}
		for j, st := range crStates {
			cr := sims[1+j].cr
			crSet := trace.NewSet(pmu.AllEvents())
			addNoisy(sctx, tr, crSet, "cr-spectre", trace.LabelAttack, cr.Samples, cfg.NoiseSigma, seed)
			crEval := evalMix(sctx, tr, project(sctx, tr, crSet, cfg.FeatureSize), benignEval, seed+7)
			acc, err := score(sctx, tr, st, crEval.Data)
			if err != nil {
				end()
				return nil, err
			}
			res.CR = append(res.CR, experiments.AttemptPoint{
				Classifier: st.det.Name(), Attempt: attempt, Accuracy: acc,
				Verdict: hid.Judge(acc), Variant: crVariants[j].String(),
				Recovered: cr.Recovered == cfg.Secret && cr.Injected,
			})
			if acc > hid.DetectThreshold {
				st.variant = st.variant.Mutate(st.rng)
				st.probeDelay = 60 + st.rng.Int63n(400)
			}
		}
		end()
	}
	return res, nil
}
