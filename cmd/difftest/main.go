// Command difftest soak-tests the optimized speculative core against the
// reference interpreter (internal/oracle) on random programs
// (internal/progen). Each shard generates a program from a
// splitmix64-derived per-shard seed, takes the next micro-architectural
// posture of oracle.Postures in turn, and lock-steps the two
// implementations, comparing registers, flags, PC, and dirtied
// memory at every retire. Each clean shard is then re-run through the
// block-tier differential (oracle.RunTierDiff), which holds the
// superblock tier to the harsher cycle-exact contract against the
// single-step interpreter; -noblocks skips that axis. On
// divergence the program is shrunk to the shortest failing prefix and a
// repro report is written.
//
// Usage:
//
//	difftest -programs 512 -workers 8         # fixed-count run
//	difftest -minutes 5 -seed 42              # CI soak: waves until the deadline
//	difftest -selftest                        # prove the harness catches bugs
//	difftest -repro repro.txt -minutes 2      # write the minimized repro here
//
// Exit status: 0 clean, 1 divergence (or selftest failure), 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// shardResult is one program's outcome, aggregated into the run summary.
type shardResult struct {
	seed    int64
	config  string
	cfg     cpu.Config
	steps   uint64
	halted  bool
	faulted bool
	budget  bool
	div     *oracle.Divergence
	tierDiv *oracle.Divergence
	prog    progen.Program
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("difftest", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "base seed; shard seeds derive from it")
		programs = fs.Int("programs", 256, "programs per run (fixed-count mode)")
		minutes  = fs.Float64("minutes", 0, "soak mode: run waves of programs until this many minutes elapse")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = all cores)")
		maxInstr = fs.Uint64("maxinstr", 200_000, "per-program retired-instruction budget")
		reproOut = fs.String("repro", "", "also write the minimized repro report to this file")
		selftest = fs.Bool("selftest", false, "inject a fast-path bug and require catch + minimize, then exit")
		verbose  = fs.Bool("v", false, "per-wave progress")

		noblocks = fs.Bool("noblocks", false, "skip the per-shard block-tier diff (the lock-step run single-steps either way)")
	)
	// Observability is opt-in: without -obs/-manifest every sink stays
	// nil and the scheduler keeps its nil-check-only fast path. Task
	// stops stay in the ring — /events then tails one line per completed
	// shard, the soak's live feed — but the starts, which would only
	// halve the ring's reach, are kept as counts. A shard is milliseconds
	// of work; a minute of silence means a wedged worker.
	oc := obs.Config{Tool: "difftest", Exclude: []telemetry.Kind{telemetry.KindTaskStart}, Stall: time.Minute}
	fs.StringVar(&oc.Obs, "obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while soaking, e.g. 127.0.0.1:9464")
	fs.StringVar(&oc.Manifest, "manifest", "", "write a run manifest (provenance + final metrics/progress) to this file on a clean exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *selftest {
		return runSelftest(stdout)
	}
	tierDiff := !*noblocks

	h, err := obs.Start(oc)
	if err != nil {
		return err
	}
	defer h.Close()
	ctx := sched.WithSinks(context.Background(), h.Sinks, "difftest")
	postures := oracle.Postures()

	start := time.Now()
	deadline := time.Duration(float64(time.Minute) * *minutes)
	var total, halted, faulted, budget int
	var instret uint64
	wave := 0
	const waveSize = 64

	for {
		n := waveSize
		if deadline == 0 {
			remaining := *programs - total
			if remaining <= 0 {
				break
			}
			if remaining < n {
				n = remaining
			}
		} else if time.Since(start) >= deadline {
			break
		}
		base := uint64(wave) * waveSize
		results, err := sched.Map(ctx, *workers, n, func(ctx context.Context, i int) (shardResult, error) {
			shard := base + uint64(i)
			s := sched.DeriveSeed(*seed, shard)
			pos := postures[shard%uint64(len(postures))]
			p := progen.Generate(s, progen.DefaultOptions())
			res, err := oracle.RunProgram(p, pos.CPU, *maxInstr, nil)
			if err != nil {
				return shardResult{}, fmt.Errorf("shard %d (seed %d): %w", shard, s, err)
			}
			sr := shardResult{
				seed: s, config: pos.Name, cfg: pos.CPU, steps: res.Steps,
				halted: res.Halted, faulted: res.Fault != nil, budget: res.BudgetExhausted,
				div: res.Div, prog: p,
			}
			// Same program, second axis: superblock tier vs single-step
			// under the cycle-exact tier contract (DESIGN.md §11).
			if tierDiff && sr.div == nil {
				tres, err := oracle.RunTierDiff(p, pos.CPU, *maxInstr, 0, nil)
				if err != nil {
					return shardResult{}, fmt.Errorf("shard %d (seed %d) tier diff: %w", shard, s, err)
				}
				sr.tierDiv = tres.Div
			}
			sched.ObserveInstrs(ctx, sr.steps)
			return sr, nil
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			total++
			instret += r.steps
			h.Metrics.Inc("difftest.programs")
			h.Metrics.Add("difftest.instr_pairs", r.steps)
			switch {
			case r.div != nil:
				return reportDivergence(stdout, *reproOut, r, r.div, lockstepAxis(*maxInstr, nil))
			case r.tierDiv != nil:
				return reportDivergence(stdout, *reproOut, r, r.tierDiv, tierAxis(*maxInstr, 0, nil))
			case r.halted:
				halted++
			case r.faulted:
				faulted++
			case r.budget:
				budget++
			}
		}
		wave++
		if *verbose {
			fmt.Fprintf(stdout, "wave %d: %d programs, %.1fs elapsed\n", wave, total, time.Since(start).Seconds())
		}
	}

	elapsed := time.Since(start).Seconds()
	mode := "on"
	if !tierDiff {
		mode = "off"
	}
	fmt.Fprintf(stdout, "difftest: %d programs (%d halted, %d faulted, %d budget-capped), %d instr pairs, tier-diff %s, %.1fs, divergences: 0\n",
		total, halted, faulted, budget, instret, mode, elapsed)
	if oc.Manifest != "" {
		h.Metrics.Add("difftest.halted", uint64(halted))
		h.Metrics.Add("difftest.faulted", uint64(faulted))
		h.Metrics.Add("difftest.budget_capped", uint64(budget))
	}
	m := telemetry.NewManifest("difftest", args)
	m.Seed = *seed
	m.Workers = sched.Workers(*workers)
	m.Config = map[string]any{
		"programs": *programs,
		"minutes":  *minutes,
		"maxinstr": *maxInstr,
		"tierdiff": tierDiff,
	}
	return h.WriteOutputs(stdout, m)
}

// axis is one of a shard's two differentials, as its divergence report
// names it, with the minimizer that shrinks a failing program on it.
type axis struct {
	title    string // report headline
	note     string // headline suffix
	subject  string // what the returned error calls the divergence
	minimize func(p progen.Program, cfg cpu.Config) (min progen.Program, n int, div *oracle.Divergence, ok bool)
}

// lockstepAxis is the optimized core against the reference interpreter.
func lockstepAxis(maxInstr uint64, pre oracle.PreStep) axis {
	return axis{title: "DIVERGENCE", subject: "divergence",
		minimize: func(p progen.Program, cfg cpu.Config) (progen.Program, int, *oracle.Divergence, bool) {
			min, n, res, ok := oracle.Minimize(p, cfg, maxInstr, pre)
			return min, n, res.Div, ok
		}}
}

// tierAxis is the block tier against single-step: the optimized core
// agreed with the reference interpreter but disagreed with itself once
// superblocks were enabled. Minimization goes through the tier harness
// so the repro stays a two-tier one.
func tierAxis(maxInstr, sliceInstr uint64, pre oracle.TierPreSlice) axis {
	return axis{title: "TIER DIVERGENCE", note: " (blocks vs single-step)", subject: "block-tier divergence",
		minimize: func(p progen.Program, cfg cpu.Config) (progen.Program, int, *oracle.Divergence, bool) {
			min, n, res, ok := oracle.MinimizeTier(p, cfg, maxInstr, sliceInstr, pre)
			return min, n, res.Div, ok
		}}
}

// reportDivergence minimizes the failing program on its axis and writes
// the repro report; the returned error carries the headline so the
// process exits 1.
func reportDivergence(stdout io.Writer, reproPath string, r shardResult, div *oracle.Divergence, ax axis) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d config=%s%s\n%v\n", ax.title, r.seed, r.config, ax.note, div)
	if min, n, mdiv, ok := ax.minimize(r.prog, r.cfg); ok {
		fmt.Fprintf(&b, "minimized to %d instructions:\n%s%v\n", n, min.Disasm(n), mdiv)
	} else {
		fmt.Fprintf(&b, "minimization failed to reproduce; full program (%d instructions):\n%s",
			r.prog.NumInstr, r.prog.Disasm(0))
	}
	report := b.String()
	fmt.Fprint(stdout, report)
	if reproPath != "" {
		if err := os.WriteFile(reproPath, []byte(report), 0o644); err != nil {
			return fmt.Errorf("difftest: %s found, and writing repro failed: %w", strings.ToLower(ax.title), err)
		}
	}
	return fmt.Errorf("difftest: %s on seed %d (config %s)", ax.subject, r.seed, r.config)
}

// runSelftest proves the harness end to end: it injects silent
// corruptions modelling a broken memory fast path and a broken
// store-bypass fast path, and requires the lock-step comparison to
// catch each and the reporter to minimize it to a short prefix. A
// harness that cannot fail is not a test harness.
func runSelftest(stdout io.Writer) error {
	scenarios := []struct {
		name  string
		build func() (progen.Program, oracle.PreStep, int, error)
	}{
		{"write64", brokenFastPathScenario},
		{"store-bypass", brokenStoreBypassScenario},
	}
	for _, sc := range scenarios {
		p, pre, badIdx, err := sc.build()
		if err != nil {
			return err
		}
		cfg := cpu.DefaultConfig()
		res, err := oracle.RunProgram(p, cfg, 100_000, pre)
		if err != nil {
			return err
		}
		if res.Clean() {
			return fmt.Errorf("difftest: selftest %s: injected corruption was NOT detected", sc.name)
		}
		_, n, mres, ok := oracle.Minimize(p, cfg, 100_000, pre)
		if !ok || mres.Clean() {
			return fmt.Errorf("difftest: selftest %s: minimizer failed to reproduce the divergence", sc.name)
		}
		if n > 16 {
			return fmt.Errorf("difftest: selftest %s: minimized to %d instructions, want <= 16", sc.name, n)
		}
		fmt.Fprintf(stdout, "selftest %s: corruption at instr %d caught (%d reasons) and minimized to %d instructions\n",
			sc.name, badIdx, len(res.Div.Reasons), n)
	}
	return runTierSelftest(stdout)
}

// runTierSelftest proves the block-tier axis of the harness the same
// way: a slice hook models a broken superblock that silently clobbers a
// register the program never writes, and the tier diff must catch the
// skew and MinimizeTier must shrink the repro past the padding tail.
func runTierSelftest(stdout io.Writer) error {
	p, pre, err := brokenTierScenario()
	if err != nil {
		return err
	}
	cfg := cpu.DefaultConfig()
	res, err := oracle.RunTierDiff(p, cfg, 100_000, selftestSlice, pre)
	if err != nil {
		return err
	}
	if res.Clean() {
		return fmt.Errorf("difftest: selftest block-tier: injected register skew was NOT detected")
	}
	_, n, mres, ok := oracle.MinimizeTier(p, cfg, 100_000, selftestSlice, pre)
	if !ok || mres.Clean() {
		return fmt.Errorf("difftest: selftest block-tier: minimizer failed to reproduce the divergence")
	}
	if n > 16 {
		return fmt.Errorf("difftest: selftest block-tier: minimized to %d instructions, want <= 16", n)
	}
	fmt.Fprintf(stdout, "selftest block-tier: slice-injected skew caught (%d reasons) and minimized to %d instructions\n",
		len(res.Div.Reasons), n)
	return nil
}

// selftestSlice is the block-tier selftest's slice length, short enough
// that the skew lands in the second slice.
const selftestSlice = 4

// brokenTierScenario builds a padded program and a slice hook that, in
// the second slice, clobbers a register the program never writes on the
// block-tier core only.
func brokenTierScenario() (progen.Program, oracle.TierPreSlice, error) {
	instrs := []isa.Instruction{
		{Op: isa.MOVI, Rd: 1, Imm: 7},
	}
	for i := 0; i < 48; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.HALT})
	p, err := progen.Craft(instrs, nil, false)
	if err != nil {
		return progen.Program{}, nil, err
	}
	pre := func(slice uint64, blocks, _ *cpu.CPU) {
		if slice == 1 {
			blocks.Regs[5] ^= 0xdead // r5 is never architecturally written
		}
	}
	return p, pre, nil
}

// brokenFastPathScenario builds a program whose 11th instruction is a
// 64-bit store, plus a PreStep hook that silently clobbers another byte
// on the store's page at that step — the observable signature of a
// mis-masked Write64 fast path. The long tail of padding is what the
// minimizer must discard.
func brokenFastPathScenario() (progen.Program, oracle.PreStep, int, error) {
	instrs := []isa.Instruction{
		{Op: isa.MOVI, Rd: 10, Imm: int64(progen.DataBase)},
		{Op: isa.MOVI, Rd: 1, Imm: 0x1122334455667788},
	}
	for i := 0; i < 8; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1})
	}
	const storeIdx = 10
	instrs = append(instrs, isa.Instruction{Op: isa.STORE, Rs1: 10, Rs2: 1, Imm: 64})
	for i := 0; i < 48; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.XOR, Rd: 3, Rs1: 3, Rs2: 2})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.HALT})
	p, err := progen.Craft(instrs, nil, false)
	if err != nil {
		return progen.Program{}, nil, 0, err
	}
	pre := func(step uint64, c *cpu.CPU, _ *oracle.Machine) {
		if step == storeIdx {
			_ = c.Mem.LoadRaw(progen.DataBase+80, []byte{0xEE})
		}
	}
	return p, pre, storeIdx, nil
}

// brokenStoreBypassScenario arms the Spectre-v4 fast path — a byte
// store whose data register is still in flight, immediately reloaded —
// and a PreStep hook that, at the reloading instruction, writes the
// stale pre-store byte back over the slot: the observable signature of
// a bypass episode leaking its seeded stale value into architectural
// state. The optimized core then reloads 0x55 where the oracle sees
// the sanitized zero, and the lock-step comparison must catch the
// register difference and minimize past the padding tail.
func brokenStoreBypassScenario() (progen.Program, oracle.PreStep, int, error) {
	const (
		slot    = int64(progen.DataBase)         // bypassed slot
		zeroSrc = int64(progen.DataBase) + 0x140 // flushed line: slow zero
	)
	instrs := []isa.Instruction{
		{Op: isa.MOVI, Rd: 10, Imm: slot},
		{Op: isa.MOVI, Rd: 1, Imm: 0x55},
		{Op: isa.STOREB, Rs1: 10, Rs2: 1}, // stale value underneath
		{Op: isa.MFENCE},
		{Op: isa.MOVI, Rd: 11, Imm: zeroSrc},
		{Op: isa.CLFLUSH, Rs1: 11},
		{Op: isa.MFENCE},
		{Op: isa.LOAD, Rd: 2, Rs1: 11},    // slow zero, in flight
		{Op: isa.STOREB, Rs1: 10, Rs2: 2}, // sanitizing store: bypassable
	}
	loadIdx := len(instrs)
	instrs = append(instrs, isa.Instruction{Op: isa.LOADB, Rd: 3, Rs1: 10})
	for i := 0; i < 48; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.XOR, Rd: 4, Rs1: 4, Rs2: 3})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.HALT})
	p, err := progen.Craft(instrs, nil, false)
	if err != nil {
		return progen.Program{}, nil, 0, err
	}
	pre := func(step uint64, c *cpu.CPU, _ *oracle.Machine) {
		if step == uint64(loadIdx) {
			_ = c.Mem.LoadRaw(progen.DataBase, []byte{0x55})
		}
	}
	return p, pre, loadIdx, nil
}
