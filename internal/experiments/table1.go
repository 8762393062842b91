package experiments

import (
	"context"
	"fmt"

	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// Table1Row is one benchmark row of Table I: IPC of the original
// application, and of the CR-Spectre campaign against an offline-type
// and an online-type HID. Overheads are relative to the ROP-injected
// plain-Spectre baseline, matching the paper's accounting ("compared to
// the Spectre-only attack without dynamic perturbations").
type Table1Row struct {
	Benchmark       string
	IPCOriginal     float64
	IPCOffline      float64
	IPCOnline       float64
	OverheadOffline float64 // fractional IPC loss of offline-mode perturbation
	OverheadOnline  float64
}

// Table1Workloads returns the paper's five benchmark rows at sizes
// where the host workload dominates the injected attack — the regime in
// which the paper's sub-2%% IPC deltas arise. (A tiny host under a long
// attack shows large IPC shifts in either direction, which is an
// artefact of the ratio, not of the perturbation.)
func Table1Workloads() []mibench.Workload {
	return []mibench.Workload{
		mibench.Math(16_000),
		mibench.Bitcount("bitcount_50M", 100_000),
		mibench.Bitcount("bitcount_100M", 200_000),
		mibench.SHA1(800),
		mibench.SHA2(800),
	}
}

// Table1 reproduces the IPC overhead table over the paper's five
// benchmark rows. Expected shape: the three IPC columns per row agree
// within a few percent, and both overhead columns stay small (paper:
// 0.6% offline, 1.1% online on average), because the perturbation adds
// little work relative to the host workload.
func Table1(cfg Config) ([]Table1Row, error) {
	return Table1For(cfg, Table1Workloads())
}

// Table1For runs the overhead measurement over a custom workload list.
// Every benchmark row is an independent pool task, and within a row the
// per-cell repetitions fan out too; the per-rep seed schedule matches
// the sequential implementation, so the table is byte-identical for any
// Workers setting.
func Table1For(cfg Config, workloads []mibench.Workload) ([]Table1Row, error) {
	return sched.Map(cfg.ctx("table1"), cfg.workers(), len(workloads),
		func(_ context.Context, i int) (Table1Row, error) {
			w := workloads[i]
			row := Table1Row{Benchmark: w.Name}

			orig, err := cfg.avgIPC(func(seed int64) (float64, error) {
				m := new(vm.Machine)
				if _, err := cfg.benignRun(m, w, seed); err != nil {
					return 0, err
				}
				return m.CPU.IPC(), nil
			})
			if err != nil {
				return row, fmt.Errorf("table1 %s original: %w", w.Name, err)
			}
			row.IPCOriginal = orig

			// Baseline: ROP-injected Spectre without perturbation.
			base, err := cfg.avgCRIPC(w, AttackSpec{Variant: spectre.V1BoundsCheck})
			if err != nil {
				return row, fmt.Errorf("table1 %s baseline: %w", w.Name, err)
			}

			// Offline mode: the single static Algorithm-2 variant.
			offV := perturb.Paper()
			off, err := cfg.avgCRIPC(w, AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &offV})
			if err != nil {
				return row, fmt.Errorf("table1 %s offline: %w", w.Name, err)
			}
			row.IPCOffline = off

			// Online mode: a mutated variant with dispersion, as the
			// adaptive campaign would deploy.
			onV := perturb.Scaled(2)
			onV.Delay = 60
			on, err := cfg.avgCRIPC(w, AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &onV, ProbeDelay: 40})
			if err != nil {
				return row, fmt.Errorf("table1 %s online: %w", w.Name, err)
			}
			row.IPCOnline = on

			if base > 0 {
				row.OverheadOffline = (base - off) / base
				row.OverheadOnline = (base - on) / base
			}
			return row, nil
		})
}

func (cfg Config) avgIPC(run func(seed int64) (float64, error)) (float64, error) {
	reps := cfg.Reps
	if reps <= 0 {
		reps = 3
	}
	vals, err := sched.Map(cfg.ctx("table1-reps"), cfg.workers(), reps,
		func(_ context.Context, r int) (float64, error) {
			return run(cfg.Seed + int64(r)*337)
		})
	if err != nil {
		return 0, err
	}
	// Accumulate in rep order: summation order is part of the
	// byte-identical contract.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(reps), nil
}

func (cfg Config) avgCRIPC(w mibench.Workload, spec AttackSpec) (float64, error) {
	return cfg.avgIPC(func(seed int64) (float64, error) {
		cr, err := cfg.crRun(new(vm.Machine), w, spec, seed)
		if err != nil {
			return 0, err
		}
		if !cr.Injected {
			return 0, fmt.Errorf("injection failed on %s", w.Name)
		}
		return cr.Machine.CPU.IPC(), nil
	})
}

// MeanOverheads averages the two overhead columns across rows — the
// paper's headline "0.6% and 1.1%" aggregate.
func MeanOverheads(rows []Table1Row) (offline, online float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		offline += r.OverheadOffline
		online += r.OverheadOnline
	}
	n := float64(len(rows))
	return offline / n, online / n
}
