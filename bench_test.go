package repro

// Benchmark harness: one benchmark per paper artefact (Fig. 4, Fig. 5,
// Fig. 6, Table I) plus ablation benchmarks for the design choices
// DESIGN.md calls out. Figure benches run a CI-scaled campaign per
// iteration and report the headline metric of the corresponding plot via
// b.ReportMetric, so `go test -bench` regenerates the paper's numbers:
//
//	fig4 — accuracy at feature sizes 4 and 1
//	fig5 — offline-HID accuracy: plain Spectre vs CR-Spectre
//	fig6 — online-HID minimum accuracy (the paper's 16% headline)
//	table1 — mean perturbation overhead (paper: 0.6% / 1.1%)

import (
	"flag"
	"fmt"
	"testing"
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

// benchWorkers bounds the experiment engine's parallelism in the figure
// benchmarks (0 = all cores); results are identical for any value, only
// wall-clock changes: go test -bench Fig5 -workers 1.
var benchWorkers = flag.Int("workers", 0, "worker pool width for figure benchmarks (0 = all cores)")

// benchConfig is the CI-scaled campaign configuration shared by the
// figure benchmarks. Raise SamplesPerClass/Attempts for paper-scale runs
// (see cmd/experiments).
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.SamplesPerClass = 120
	cfg.Attempts = 5
	cfg.Secret = "SECR3T42"
	cfg.Classifiers = []string{"mlp", "lr"}
	cfg.Interval = 10_000
	cfg.Workers = *benchWorkers
	return cfg
}

// BenchmarkFig4FeatureSize regenerates the Fig. 4 sweep and reports the
// mean accuracy at feature sizes 4 (the paper's operating point) and 1
// (the collapsed configuration). The workers sub-benchmarks produce
// identical accuracies — comparing their ns/op is the engine's speedup.
func BenchmarkFig4FeatureSize(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig4(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mean := func(size int) float64 {
					var s float64
					n := 0
					for _, r := range rows {
						if r.FeatureSize == size {
							s += r.Accuracy
							n++
						}
					}
					return s / float64(n)
				}
				b.ReportMetric(100*mean(4), "acc4_%")
				b.ReportMetric(100*mean(1), "acc1_%")
			}
		})
	}
}

// BenchmarkCorpusSpeedup times the same benign-corpus build at Workers=1
// and Workers=4 inside one iteration and reports the ratio directly as
// speedup_x — the headline number for the parallel experiment engine.
func BenchmarkCorpusSpeedup(b *testing.B) {
	cfg := benchConfig()
	cfg.SamplesPerClass = 200
	workloads := mibench.AllWithBackgrounds()
	for i := 0; i < b.N; i++ {
		cfg.Workers = 1
		start := time.Now()
		if _, err := cfg.BenignCorpus(workloads, cfg.SamplesPerClass); err != nil {
			b.Fatal(err)
		}
		seq := time.Since(start)
		cfg.Workers = 4
		start = time.Now()
		if _, err := cfg.BenignCorpus(workloads, cfg.SamplesPerClass); err != nil {
			b.Fatal(err)
		}
		par := time.Since(start)
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_x")
		b.ReportMetric(seq.Seconds(), "seq_s")
		b.ReportMetric(par.Seconds(), "par_s")
	}
}

// BenchmarkFig5OfflineHID regenerates the offline campaign and reports
// panel (a) and panel (b) mean accuracies — the detected-vs-evaded gap.
func BenchmarkFig5OfflineHID(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*experiments.MeanAccuracy(res.Plain), "spectre_%")
		b.ReportMetric(100*experiments.MeanAccuracy(res.CR), "crspectre_%")
		b.ReportMetric(100*experiments.MinAccuracy(res.CR), "crmin_%")
	}
}

// BenchmarkFig6OnlineHID regenerates the online campaign; crmin_% is the
// paper's "lowest observed accuracy of 16%" headline.
func BenchmarkFig6OnlineHID(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*experiments.MeanAccuracy(res.Plain), "spectre_%")
		b.ReportMetric(100*experiments.MeanAccuracy(res.CR), "crspectre_%")
		b.ReportMetric(100*experiments.MinAccuracy(res.CR), "crmin_%")
	}
}

// BenchmarkTable1IPCOverhead regenerates the overhead table and reports
// the mean perturbation overheads (paper: offline 0.6%, online 1.1%).
func BenchmarkTable1IPCOverhead(b *testing.B) {
	cfg := benchConfig()
	cfg.Reps = 2
	workloads := []mibench.Workload{
		mibench.Math(2_000),
		mibench.Bitcount("bitcount_50M", 25_000),
		mibench.SHA1(150),
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1For(cfg, workloads)
		if err != nil {
			b.Fatal(err)
		}
		off, on := experiments.MeanOverheads(rows)
		b.ReportMetric(100*off, "offline_ovh_%")
		b.ReportMetric(100*on, "online_ovh_%")
		b.ReportMetric(rows[0].IPCOriginal, "math_ipc")
	}
}

// leakRate runs one standalone leak and returns recovered bytes and the
// cycles it took.
func leakRate(b *testing.B, coreCfg cpu.Config, secret string) (recovered int, cycles uint64) {
	b.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Secret = secret
	cfg.CPU = coreCfg
	_, m, err := experiments.RunStandalone(cfg, experiments.AttackSpec{Variant: spectre.V1BoundsCheck}, 1)
	if err != nil {
		b.Fatal(err)
	}
	out := m.Output.String()
	for i := 0; i < len(out) && i < len(secret); i++ {
		if out[i] == secret[i] {
			recovered++
		}
	}
	return recovered, m.CPU.Cycle
}

// BenchmarkAblationSpecWindow sweeps the speculation window (DESIGN.md
// ablation 2): the leak needs the window to cover the dependent-load
// chain; tiny windows kill it.
func BenchmarkAblationSpecWindow(b *testing.B) {
	for _, window := range []int{2, 8, 64, 192} {
		b.Run("w"+itoa(window), func(b *testing.B) {
			coreCfg := cpu.DefaultConfig()
			coreCfg.SpecWindow = window
			for i := 0; i < b.N; i++ {
				rec, cyc := leakRate(b, coreCfg, "ABCDEFGH")
				b.ReportMetric(float64(rec), "bytes_leaked")
				b.ReportMetric(float64(rec)/(float64(cyc)/1e6), "bytes_per_Mcycle")
			}
		})
	}
}

// BenchmarkAblationDefenses measures the leak under each modelled
// hardware defense (DESIGN.md ablation 1): InvisiSpec-style squash
// rollback and full speculation disable must zero the channel.
func BenchmarkAblationDefenses(b *testing.B) {
	cases := map[string]func(*cpu.Config){
		"baseline":       func(c *cpu.Config) {},
		"invisispec":     func(c *cpu.Config) { c.SquashCacheEffects = true },
		"no_speculation": func(c *cpu.Config) { c.SpeculationEnabled = false },
	}
	for name, mutate := range cases {
		b.Run(name, func(b *testing.B) {
			coreCfg := cpu.DefaultConfig()
			mutate(&coreCfg)
			for i := 0; i < b.N; i++ {
				rec, _ := leakRate(b, coreCfg, "ABCDEFGH")
				b.ReportMetric(float64(rec), "bytes_leaked")
			}
		})
	}
}

// BenchmarkAblationVariants compares the four Spectre variants' leak
// throughput on the baseline core.
func BenchmarkAblationVariants(b *testing.B) {
	for _, v := range spectre.Variants() {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Secret = "ABCDEFGH"
			for i := 0; i < b.N; i++ {
				_, m, err := experiments.RunStandalone(cfg, experiments.AttackSpec{Variant: v}, 1)
				if err != nil {
					b.Fatal(err)
				}
				ok := 0.0
				if m.Output.String() == cfg.Secret {
					ok = 1
				}
				b.ReportMetric(ok, "leak_ok")
				b.ReportMetric(float64(len(cfg.Secret))/(float64(m.CPU.Cycle)/1e6), "bytes_per_Mcycle")
			}
		})
	}
}

// BenchmarkAblationPerturbCost isolates the perturbation's execution
// cost (DESIGN.md ablation 3): instructions added per leaked byte for
// the paper variant vs a heavy mutation.
func BenchmarkAblationPerturbCost(b *testing.B) {
	run := func(b *testing.B, pp *perturb.Params) {
		cfg := experiments.DefaultConfig()
		cfg.Secret = "ABCDEFGH"
		for i := 0; i < b.N; i++ {
			_, m, err := experiments.RunStandalone(cfg, experiments.AttackSpec{
				Variant: spectre.V1BoundsCheck, Perturb: pp,
			}, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.CPU.Instret())/float64(len(cfg.Secret)), "instr_per_byte")
			b.ReportMetric(float64(m.CPU.Snapshot().Flushes), "clflush_total")
		}
	}
	b.Run("none", func(b *testing.B) { run(b, nil) })
	paperV := perturb.Paper()
	b.Run("paper", func(b *testing.B) { run(b, &paperV) })
	heavy := perturb.Scaled(8)
	heavy.Delay = 120
	b.Run("heavy", func(b *testing.B) { run(b, &heavy) })
}

// BenchmarkGadgetScan measures gadget discovery over a full host image.
func BenchmarkGadgetScan(b *testing.B) {
	host := mibench.SHA1(40)
	mod, err := host.HostModule(rop.HostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	img, err := mod.Link(0x100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := gadget.Scan(img, 3)
		if len(gs) == 0 {
			b.Fatal("no gadgets")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulated instructions per
// second on a branchy integer kernel — the platform's speed budget. The
// sub-benchmarks select the execution tier (DESIGN.md §6): "blocks" is
// the default superblock tier, "noblocks" the single-step tier over the
// predecode cache. CI's bench-smoke job asserts blocks > noblocks; both
// retire the identical instruction stream on the identical simulated
// machine, so the ns/op ratio is pure host-tier speedup.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := mibench.Bitcount("bench", 20_000)
	mod, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		noBlocks bool
	}{
		{"blocks", false},
		{"noblocks", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var instr uint64
			for i := 0; i < b.N; i++ {
				cfg := vm.DefaultConfig()
				cfg.CPU.NoBlocks = tc.noBlocks
				m := vm.New(cfg)
				m.Register("w", mod, 0x100000)
				if err := m.Exec("w", []byte("x"), 1<<32); err != nil {
					b.Fatal(err)
				}
				instr += m.CPU.Instret()
			}
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationChannelNoise sweeps co-tenant cache interference
// against receiver redundancy: the single-round receiver degrades while
// the multi-round voting receiver (the original PoC's scoring loop)
// rides the noise out.
func BenchmarkAblationChannelNoise(b *testing.B) {
	secret := "ABCDEFGH"
	for _, tc := range []struct {
		name   string
		period uint64
		rounds int
	}{
		{"clean_r1", 0, 1},
		{"noisy_r1", 60, 1},
		{"noisy_r5", 60, 5},
		{"noisy_r9", 60, 9},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			coreCfg := cpu.DefaultConfig()
			coreCfg.NoisePeriod = tc.period
			coreCfg.NoiseSeed = 77
			cfg := experiments.DefaultConfig()
			cfg.Secret = secret
			cfg.CPU = coreCfg
			for i := 0; i < b.N; i++ {
				_, m, err := experiments.RunStandalone(cfg, experiments.AttackSpec{
					Variant: spectre.V1BoundsCheck,
					Rounds:  tc.rounds,
				}, 1)
				if err != nil {
					b.Fatal(err)
				}
				out := m.Output.String()
				ok := 0
				for j := 0; j < len(out) && j < len(secret); j++ {
					if out[j] == secret[j] {
						ok++
					}
				}
				b.ReportMetric(float64(ok), "bytes_correct")
				b.ReportMetric(float64(len(secret))/(float64(m.CPU.Cycle)/1e6), "bytes_per_Mcycle")
			}
		})
	}
}

// BenchmarkAblationCoTenant replaces the synthetic noise model with a
// real co-running workload on a shared cache hierarchy (vm.CoExec): the
// streaming neighbour displaces probe lines mid-scan, and the voting
// receiver restores the leak.
func BenchmarkAblationCoTenant(b *testing.B) {
	secret := "ABCDEFGH"
	neighbour := mibench.Stream(1000)
	for _, tc := range []struct {
		name   string
		rounds int
	}{
		{"co_r1", 1},
		{"co_r7", 7},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Secret = secret
			for i := 0; i < b.N; i++ {
				m, err := experiments.RunStandaloneCoTenant(cfg, experiments.AttackSpec{
					Variant: spectre.V1BoundsCheck,
					Rounds:  tc.rounds,
				}, neighbour, 64, 1)
				if err != nil {
					b.Fatal(err)
				}
				out := m.Output.String()
				ok := 0
				for j := 0; j < len(out) && j < len(secret); j++ {
					if out[j] == secret[j] {
						ok++
					}
				}
				b.ReportMetric(float64(ok), "bytes_correct")
			}
		})
	}
}

// BenchmarkAblationPrefetcher toggles the next-line prefetcher: it must
// speed the streaming workload (IPC up) while leaving the flush+reload
// channel intact (the probe stride defeats next-line prediction).
func BenchmarkAblationPrefetcher(b *testing.B) {
	for _, pf := range []bool{false, true} {
		name := "off"
		if pf {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			coreCfg := cpu.DefaultConfig()
			coreCfg.NextLinePrefetch = pf
			// Line-by-line streaming (stride 64): the pattern next-line
			// prefetching accelerates.
			w := mibench.StreamStride("stream64", 3, 64)
			mod, err := w.HostModule(rop.HostOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				mc := vm.DefaultConfig()
				mc.CPU = coreCfg
				m := vm.New(mc)
				m.Register("w", mod, 0x100000)
				if err := m.Exec("w", []byte("x"), 1<<32); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.CPU.IPC(), "stream_ipc")
				rec, _ := leakRate(b, coreCfg, "ABCDEFGH")
				b.ReportMetric(float64(rec), "bytes_leaked")
			}
		})
	}
}

// BenchmarkAblationPredictor compares the PHT and gshare conditional
// predictors against the naive looped trainer and the history-smashed
// trainer: gshare blocks the former and falls to the latter.
func BenchmarkAblationPredictor(b *testing.B) {
	cases := []struct {
		name    string
		pred    string
		matched bool
	}{
		{"pht_looped", "pht", false},
		{"gshare_looped", "gshare", false},
		{"gshare_history_matched", "gshare", true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			coreCfg := cpu.DefaultConfig()
			coreCfg.Predictor = tc.pred
			cfg := experiments.DefaultConfig()
			cfg.Secret = "ABCDEFGH"
			cfg.CPU = coreCfg
			for i := 0; i < b.N; i++ {
				_, m, err := experiments.RunStandalone(cfg, experiments.AttackSpec{
					Variant: spectre.V1BoundsCheck, HistoryMatched: tc.matched,
				}, 1)
				if err != nil {
					b.Fatal(err)
				}
				out := m.Output.String()
				ok := 0
				for j := 0; j < len(out) && j < len(cfg.Secret); j++ {
					if out[j] == cfg.Secret[j] {
						ok++
					}
				}
				b.ReportMetric(float64(ok), "bytes_leaked")
			}
		})
	}
}

// BenchmarkAblationSamplingInterval sweeps the PMU sampling period:
// coarser sampling dilutes the attack's per-interval signature (fewer,
// blurrier samples), trading detector accuracy against monitoring
// overhead — the runtime-monitoring constraint behind the paper's
// feature-size choice.
func BenchmarkAblationSamplingInterval(b *testing.B) {
	for _, interval := range []uint64{5_000, 20_000, 80_000} {
		interval := interval
		b.Run("iv"+itoa(int(interval)), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Interval = interval
			cfg.Attempts = 2
			cfg.Classifiers = []string{"mlp"}
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*experiments.MeanAccuracy(res.Plain), "spectre_%")
				b.ReportMetric(100*experiments.MeanAccuracy(res.CR), "crspectre_%")
			}
		})
	}
}
