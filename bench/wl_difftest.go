package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/sched"
)

var difftestWorkload = workload{
	name: "difftest",
	why: "Thousands of cold tiny machines lock-stepped against the oracle and the tier diff: " +
		"building memories and cores dominates, so set-up-cost work shows here and not in table1.",
	loops: engineWorkers, cycle: 1, minOps: 256 / engineWorkers,
	setup: setupDifftest,
}

// difftestMaxInstr is cmd/difftest's per-program budget.
const difftestMaxInstr = 200_000

// postureRing is cmd/difftest's posture sweep: program j runs under
// postureRing[j % 12].
var postureRing = []cpu.Config{
	cpu.DefaultConfig(),
	{SpecWindow: 64, MispredictPenalty: 24},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, SquashCacheEffects: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, FenceConditional: true},
	{SpecWindow: 2, MispredictPenalty: 3, SpeculationEnabled: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, Predictor: "gshare", NextLinePrefetch: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, NoisePeriod: 50, NoiseSeed: 7},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, PrivilegedFlush: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, Retpoline: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, DisableStoreBypass: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, BTBEntries: 16, BTBTagBits: 1},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, BTBTagBits: -2},
}

// progOutcome is the architectural outcome of one program.
type progOutcome struct {
	steps                   uint64
	halted, faulted, budget bool
}

// difftestInst runs one generated program per op, program j = k*loops +
// loop with cmd/difftest's seed derivation. The outcomes of the first
// `window` programs form the output the pins cover.
type difftestInst struct {
	noProbe
	seed   int64
	loops  int
	window int
	pinned bool
	progs  []string // digests of the window's programs, from set-up

	mu      sync.Mutex
	outs    []*progOutcome
	got     int
	pinLine string
	pinErr  error
}

// setupDifftest generates the pinned window's programs and keeps their
// digests: every op regenerates its program, as cmd/difftest does, and
// the window's ops check that the generator reproduced it.
func setupDifftest(seed int64, tiny bool, _ string) (instance, error) {
	d := &difftestInst{seed: seed, loops: engineWorkers, window: 256, pinned: !tiny}
	if tiny {
		d.window = 8
	}
	d.outs = make([]*progOutcome, d.window)
	for j := 0; j < d.window; j++ {
		d.progs = append(d.progs, programDigest(progen.Generate(sched.DeriveSeed(seed, uint64(j)), progen.DefaultOptions())))
	}
	return d, nil
}

func programDigest(p progen.Program) string {
	return digest(append(append([]byte(nil), p.Code...), p.Data...))
}

// runProgram is cmd/difftest's shard after generation: lock-step against
// the oracle, then the block-tier diff.
func runProgram(p progen.Program, cfg cpu.Config) (progOutcome, error) {
	res, err := oracle.RunProgram(p, cfg, difftestMaxInstr, nil)
	if err != nil {
		return progOutcome{}, err
	}
	if res.Div != nil {
		return progOutcome{}, fmt.Errorf("divergence: %v", res.Div)
	}
	tres, err := oracle.RunTierDiff(p, cfg, difftestMaxInstr, 0, nil)
	if err != nil {
		return progOutcome{}, err
	}
	if tres.Div != nil {
		return progOutcome{}, fmt.Errorf("tier divergence: %v", tres.Div)
	}
	return progOutcome{steps: res.Steps, halted: res.Halted, faulted: res.Fault != nil, budget: res.BudgetExhausted}, nil
}

// runProgramTraced is runProgram with oracle.RunProgram re-driven from
// its parts. count selects whether the program's work enters the
// per-op counters (only programs of the pinned window do, so the counts
// repeat exactly from run to run).
func runProgramTraced(ctx context.Context, tr *tracer, p progen.Program, cfg cpu.Config, count bool) (progOutcome, error) {
	newMem := func() (*mem.Memory, error) {
		_, end := tr.span(ctx, "mem.new")
		defer end()
		return p.NewMem()
	}
	mc, err := newMem()
	if err != nil {
		return progOutcome{}, err
	}
	mo, err := newMem()
	if err != nil {
		return progOutcome{}, err
	}
	_, end := tr.span(ctx, "cpu.new")
	c := cpu.New(mc, cfg)
	c.PC = p.CodeBase
	c.Regs[isa.RegSP] = p.StackTop
	end()
	_, end = tr.span(ctx, "oracle.lockstep")
	o := oracle.New(mo)
	o.PC = p.CodeBase
	o.Regs[isa.RegSP] = p.StackTop
	o.PrivilegedFlush = cfg.PrivilegedFlush
	res := oracle.Lockstep(c, o, difftestMaxInstr, nil)
	end()
	if res.Div != nil {
		return progOutcome{}, fmt.Errorf("divergence: %v", res.Div)
	}
	_, end = tr.span(ctx, "oracle.tierdiff")
	tres, err := oracle.RunTierDiff(p, cfg, difftestMaxInstr, 0, nil)
	end()
	if err != nil {
		return progOutcome{}, err
	}
	if tres.Div != nil {
		return progOutcome{}, fmt.Errorf("tier divergence: %v", tres.Div)
	}
	if count {
		tr.count("bench.ops", 1)
		tr.count("oracle.steps", float64(res.Steps))
		observeCore(tr, c.Snapshot())
		tr.count("cpu.block_hits", float64(tres.Blocks.Hits))
		tr.count("cpu.block_compiled", float64(tres.Blocks.Compiled))
		tr.count("cpu.block_invalidations", float64(tres.Blocks.Invalidations))
	}
	return progOutcome{steps: res.Steps, halted: res.Halted, faulted: res.Fault != nil, budget: res.BudgetExhausted}, nil
}

func (d *difftestInst) op(ctx context.Context, loop, k int, tr *tracer) error {
	j := k*d.loops + loop
	s := sched.DeriveSeed(d.seed, uint64(j))
	cfg := postureRing[j%len(postureRing)]
	_, end := tr.span(ctx, "progen.generate")
	p := progen.Generate(s, progen.DefaultOptions())
	end()
	if j < d.window && programDigest(p) != d.progs[j] {
		return fmt.Errorf("difftest seed %d: program %d (seed %d) differs from its set-up generation", d.seed, j, s)
	}
	var (
		out progOutcome
		err error
	)
	if tr == nil {
		out, err = runProgram(p, cfg)
	} else {
		out, err = runProgramTraced(ctx, tr, p, cfg, j < d.window)
	}
	if err != nil {
		return fmt.Errorf("difftest seed %d: program %d (seed %d): %w", d.seed, j, s, err)
	}
	if j >= d.window {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.outs[j] = &out
	if d.got++; d.got == d.window {
		d.pinLine, d.pinErr = d.windowDigest()
		return d.pinErr
	}
	return nil
}

// windowDigest digests the window's per-program outcomes in program
// order, with their totals alongside for the report.
func (d *difftestInst) windowDigest() (string, error) {
	var b strings.Builder
	var halted, faulted, budget int
	var steps uint64
	for j, o := range d.outs {
		fmt.Fprintf(&b, "%d %d %t %t %t\n", j, o.steps, o.halted, o.faulted, o.budget)
		steps += o.steps
		if o.halted {
			halted++
		}
		if o.faulted {
			faulted++
		}
		if o.budget {
			budget++
		}
	}
	totals := fmt.Sprintf("first %d programs: %d halted, %d faulted, %d budget-capped, %d steps, 0 divergences; ",
		d.window, halted, faulted, budget, steps)
	d2 := digest([]byte(b.String()))
	if !d.pinned {
		return totals + "output digest " + d2, nil
	}
	line, err := pinLine("difftest", d.seed, d2)
	return totals + line, err
}

func (d *difftestInst) finish() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.got < d.window {
		return nil, fmt.Errorf("difftest seed %d: only %d of the %d pinned programs ran", d.seed, d.got, d.window)
	}
	return []string{d.pinLine}, d.pinErr
}

func (d *difftestInst) close() {}
