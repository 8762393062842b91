package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/gadget"
	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/rop"
	"repro/internal/spectre"
	"repro/internal/vm"
)

var table1Workload = workload{
	name: "table1",
	why: "Pure simulation of long warm runs: cpu block tier, caches, predictors, PMU " +
		"sampler, gadget and ROP planning per CR run, no ML. A simulator speed-up shows here.",
	loops: 1, cycle: 1, minOps: 3,
	setup: setupTable1,
}

var fig6Workload = workload{
	name: "fig6",
	why: "The online-HID campaign, retraining after every attempt: about three quarters of " +
		"its time is MLP training, so an ML speed-up shows here and a cpu one barely moves it.",
	loops: 1, cycle: 1, minOps: 3,
	setup: setupFig6,
}

// table1Inst runs Table I: the five paper rows at one repetition per
// cell, so a run holds several ops.
type table1Inst struct {
	cfg   experiments.Config
	rows  []mibench.Workload
	check *outputCheck

	mu   sync.Mutex
	last []experiments.Table1Row
}

func setupTable1(seed int64, tiny bool, _ string) (instance, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Reps = 1
	cfg.Workers = engineWorkers
	rows := experiments.Table1Workloads()
	if tiny {
		rows = []mibench.Workload{mibench.Math(300)}
	}
	offV, onV := perturb.Paper(), perturb.Scaled(2)
	for _, w := range rows {
		if err := checkHost(w, cfg.Secret, nil, &offV, &onV); err != nil {
			return nil, err
		}
	}
	return &table1Inst{cfg: cfg, rows: rows, check: newOutputCheck("table1", seed, !tiny)}, nil
}

func (t *table1Inst) op(ctx context.Context, _, _ int, tr *tracer) error {
	var (
		rows []experiments.Table1Row
		err  error
	)
	if tr == nil {
		rows, err = experiments.Table1For(t.cfg, t.rows)
	} else {
		rows, err = table1Replica(ctx, tr, t.cfg, t.rows)
		tr.count("bench.ops", 1)
	}
	if err != nil {
		return err
	}
	var b bytes.Buffer
	experiments.Table1CSV(&b, rows)
	t.mu.Lock()
	t.last = rows
	t.mu.Unlock()
	return t.check.check("", b.Bytes())
}

func (t *table1Inst) probe(ctx context.Context, tr *tracer) error {
	return sampleOverheadProbe(tr, t.cfg, t.rows[0])
}

func (t *table1Inst) finish() ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off, on := experiments.MeanOverheads(t.last)
	return []string{
		fmt.Sprintf("fidelity: mean perturbation overhead offline %.2f%%, online %.2f%% (paper: 0.6%%, 1.1%%)", 100*off, 100*on),
		t.check.single(),
	}, nil
}

func (t *table1Inst) close() {}

// fig6Inst runs the online-HID campaign at a reduced corpus and attempt
// count that keeps its ML share.
type fig6Inst struct {
	cfg   experiments.Config
	check *outputCheck

	mu   sync.Mutex
	last *experiments.CampaignResult
}

func setupFig6(seed int64, tiny bool, _ string) (instance, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = engineWorkers
	cfg.SamplesPerClass, cfg.Attempts = 120, 3
	if tiny {
		cfg.SamplesPerClass, cfg.Attempts = 8, 1
		cfg.Classifiers = []string{"lr", "mlp"}
	}
	for _, w := range mibench.AllWithBackgrounds() {
		mod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
		if err == nil {
			_, err = mod.Link(hostBase)
		}
		if err != nil {
			return nil, fmt.Errorf("corpus host %s: %w", w.Name, err)
		}
	}
	for _, v := range spectre.Variants() {
		if _, err := (spectre.Config{Variant: v, TargetAddr: targetBase, SecretLen: len(cfg.Secret)}).Module(); err != nil {
			return nil, fmt.Errorf("attack corpus %s: %w", v, err)
		}
	}
	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}
	paper := perturb.Paper()
	if err := checkHost(host, cfg.Secret, &paper); err != nil {
		return nil, err
	}
	return &fig6Inst{cfg: cfg, check: newOutputCheck("fig6", seed, !tiny)}, nil
}

func (f *fig6Inst) op(ctx context.Context, _, _ int, tr *tracer) error {
	var (
		res *experiments.CampaignResult
		err error
	)
	if tr == nil {
		res, err = experiments.Fig6(f.cfg)
	} else {
		res, err = fig6Replica(ctx, tr, f.cfg)
		tr.count("bench.ops", 1)
	}
	if err != nil {
		return err
	}
	var b bytes.Buffer
	experiments.CampaignCSV(&b, res)
	f.mu.Lock()
	f.last = res
	f.mu.Unlock()
	return f.check.check("", b.Bytes())
}

func (f *fig6Inst) probe(ctx context.Context, tr *tracer) error {
	host, err := mibench.ByName("math")
	if err != nil {
		return err
	}
	return sampleOverheadProbe(tr, f.cfg, host)
}

func (f *fig6Inst) finish() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.last == nil {
		return nil, nil
	}
	return []string{
		fmt.Sprintf("fidelity: online CR campaign minimum accuracy %.1f%% (paper: 16%%)", 100*experiments.MinAccuracy(f.last.CR)),
		f.check.single(),
	}, nil
}

func (f *fig6Inst) close() {}

// checkHost prepares one CR-run input the way the engine does — host
// assembled and linked, its exec chain planned, the attack binary
// assembled against it for each perturbation (nil: none) — so a set-up
// fails on inputs the ops could not run.
func checkHost(w mibench.Workload, secret string, perturbs ...*perturb.Params) error {
	mod, err := w.HostModule(rop.HostOptions{Secret: secret})
	if err != nil {
		return fmt.Errorf("host %s: %w", w.Name, err)
	}
	img, err := mod.Link(hostBase)
	if err != nil {
		return fmt.Errorf("host %s: %w", w.Name, err)
	}
	if _, err := rop.PlanInjection(gadget.ScanAndCatalog(img, 3), "crspectre", nil); err != nil {
		return fmt.Errorf("host %s: %w", w.Name, err)
	}
	secretAddr, ok := img.Symbol("__secret")
	if !ok {
		return fmt.Errorf("host %s has no __secret", w.Name)
	}
	for _, p := range perturbs {
		att := spectre.Config{Variant: spectre.V1BoundsCheck, TargetAddr: secretAddr, SecretLen: len(secret),
			PerturbAsm: perturbAsm(experiments.AttackSpec{Perturb: p}), ResumePath: w.Name + "#workload_entry"}
		if _, err := att.Module(); err != nil {
			return fmt.Errorf("host %s: attack binary: %w", w.Name, err)
		}
	}
	return nil
}

// sampleOverheadProbe times the benign run of one host bare (CPU.Run)
// and under the PMU sampler on identical machines, three times each,
// for pmu.sample_overhead_ratio.
func sampleOverheadProbe(tr *tracer, cfg experiments.Config, w mibench.Workload) error {
	mod, err := w.HostModule(rop.HostOptions{Secret: cfg.Secret})
	if err != nil {
		return err
	}
	build := func() (*vm.Machine, error) {
		mc := vm.DefaultConfig()
		mc.CPU = cfg.CPU
		mc.ASLR = true
		mc.ASLRSeed = cfg.Seed
		m := vm.New(mc)
		m.Register(w.Name, mod, hostBase)
		if _, err := m.Load(w.Name); err != nil {
			return nil, err
		}
		if _, err := m.SetArg([]byte("benign")); err != nil {
			return nil, err
		}
		return m, m.Start(w.Name)
	}
	var bare, sampled time.Duration
	for rep := 0; rep < 3; rep++ {
		m, err := build()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := m.CPU.Run(cfg.Budget); err != nil && err != cpu.ErrBudget {
			return err
		}
		bare += time.Since(start)
		if m, err = build(); err != nil {
			return err
		}
		start = time.Now()
		if _, err := sampler(cfg).Run(m.CPU, cfg.Budget); err != nil {
			return err
		}
		sampled += time.Since(start)
	}
	tr.count("pmu.probe_bare_ns", float64(bare))
	tr.count("pmu.probe_sampled_ns", float64(sampled))
	return nil
}
