package oracle

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
)

// Posture is one named micro-architectural configuration of the
// optimized core.
type Posture struct {
	Name string
	CPU  cpu.Config
}

// Postures returns the posture table: speculation on and off,
// InvisiSpec, conditional fencing, tiny windows, gshare, cache noise,
// privileged flush, and the Spectre-v2/v4 mitigations and BTB shapes.
// Architectural results must be identical under every entry, including
// post-squash state after wrong-path speculation through the indirect
// -target and store-bypass paths, enabled and sealed (the
// speculation-consistency mode of DESIGN.md §8).
func Postures() []Posture {
	return []Posture{
		{"baseline", cpu.DefaultConfig()},
		{"no-spec", cpu.Config{SpecWindow: 64, MispredictPenalty: 24}},
		{"invisispec", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, SquashCacheEffects: true}},
		{"fence-cond", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, FenceConditional: true}},
		{"tiny-window", cpu.Config{SpecWindow: 2, MispredictPenalty: 3, SpeculationEnabled: true}},
		{"gshare-prefetch", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, Predictor: "gshare", NextLinePrefetch: true}},
		{"noisy", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, NoisePeriod: 50, NoiseSeed: 7}},
		{"priv-flush", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, PrivilegedFlush: true}},
		{"retpoline", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, Retpoline: true}},
		{"ssbd", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, DisableStoreBypass: true}},
		{"tiny-btb", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, BTBEntries: 16, BTBTagBits: 1}},
		{"fulltag-btb", cpu.Config{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, BTBTagBits: -2}},
	}
}

// PreStep, when non-nil, runs before each lock-step pair of Step calls.
// It exists for fault injection in the harness's own tests (e.g.
// simulating a broken memory fast path by corrupting one side), and for
// instrumentation; production difftest runs pass nil.
type PreStep func(step uint64, c *cpu.CPU, o *Machine)

// Divergence describes the first point at which the optimized core and
// the reference interpreter disagreed.
type Divergence struct {
	// Step is the retire index (0-based) of the diverging instruction.
	Step uint64
	// PC is the program counter both sides were about to execute.
	PC uint64
	// Reasons lists every mismatching architectural field.
	Reasons []string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("divergence at step %d pc=%#x:\n  %s",
		d.Step, d.PC, strings.Join(d.Reasons, "\n  "))
}

// Result reports one lock-step run.
type Result struct {
	// Steps is the number of instruction pairs retired.
	Steps uint64
	// Halted reports a clean HALT on both sides.
	Halted bool
	// BudgetExhausted reports that maxInstr was reached before HALT.
	BudgetExhausted bool
	// Fault, when non-nil, is the identical fault both sides raised (the
	// optimized core's error). An identical fault is a *passing* outcome:
	// the program was illegal and both implementations agreed on how.
	Fault error
	// Div is non-nil when the two sides disagreed; everything else
	// describes state at the moment of divergence.
	Div *Divergence
}

// Clean reports whether the run completed without divergence.
func (r Result) Clean() bool { return r.Div == nil }

// Lockstep runs the optimized core and the reference machine one retired
// instruction at a time, comparing the full architectural contract after
// every retire: PC, all 16 registers, the comparison flags, the halted
// bit, and the contents of every memory page either side dirtied during
// the step. At final halt the entire memory is compared byte for byte.
//
// Cycle counts, per-register readiness, cache and predictor state, and
// the PMU counters are exempt: they are micro-architectural (DESIGN.md
// §1/§8). RDTSC — the one instruction that copies time into architectural
// state — is handled by feeding the core's pre-step cycle to the oracle's
// TimeFn, so its result is compared like any other register write.
//
// Both machines must have been built over identical, private memories
// with identical entry PC and SP; RunProgram does this from a
// progen.Program.
func Lockstep(c *cpu.CPU, o *Machine, maxInstr uint64, pre PreStep) Result {
	// Dirty-page tracking: both memories report stores into one sorted
	// list of the step's distinct pages, which compareState walks in
	// ascending order so a divergence's reasons read the same every run.
	var stepPages []uint64
	mark := func(addr uint64, n int) {
		for pg := addr / mem.PageSize; pg <= (addr+uint64(n)-1)/mem.PageSize; pg++ {
			if i, found := slices.BinarySearch(stepPages, pg); !found {
				stepPages = slices.Insert(stepPages, i, pg)
			}
		}
	}
	c.Mem.OnWrite = mark
	o.Mem.OnWrite = mark

	// RDTSC contract: the value the core writes is its cycle count at
	// instruction start, captured here before each Step.
	var now uint64
	o.TimeFn = func() uint64 { return now }

	var res Result
	for step := uint64(0); step < maxInstr; step++ {
		if c.Halted() && o.Halted {
			res.Halted = true
			break
		}
		if pre != nil {
			pre(step, c, o)
		}
		pc := c.PC
		now = c.Cycle
		stepPages = stepPages[:0]

		errC := c.Step()
		errO := o.Step()
		res.Steps = step + 1

		if errC != nil || errO != nil {
			if reasons := compareFaults(errC, errO); len(reasons) > 0 {
				res.Div = &Divergence{Step: step, PC: pc, Reasons: reasons}
				return res
			}
			// Identical faults: a passing outcome, but still sweep memory.
			res.Fault = errC
			if reason := compareAllMemory(c.Mem, o.Mem, "core", "oracle"); reason != "" {
				res.Div = &Divergence{Step: step, PC: pc, Reasons: []string{reason}}
			}
			return res
		}

		if reasons := compareState(c, o, stepPages); len(reasons) > 0 {
			res.Div = &Divergence{Step: step, PC: pc, Reasons: reasons}
			return res
		}
	}
	if !res.Halted {
		if c.Halted() && o.Halted {
			res.Halted = true
		} else {
			res.BudgetExhausted = true
			return res
		}
	}
	if reason := compareAllMemory(c.Mem, o.Mem, "core", "oracle"); reason != "" {
		res.Div = &Divergence{Step: res.Steps, PC: c.PC, Reasons: []string{reason}}
	}
	return res
}

// compareState checks the per-retire architectural contract.
func compareState(c *cpu.CPU, o *Machine, pages []uint64) []string {
	var reasons []string
	if c.PC != o.PC {
		reasons = append(reasons, fmt.Sprintf("PC: core=%#x oracle=%#x", c.PC, o.PC))
	}
	if c.Halted() != o.Halted {
		reasons = append(reasons, fmt.Sprintf("halted: core=%v oracle=%v", c.Halted(), o.Halted))
	}
	for r := 0; r < isa.NumRegs; r++ {
		if c.Regs[r] != o.Regs[r] {
			reasons = append(reasons, fmt.Sprintf("r%d: core=%#x oracle=%#x", r, c.Regs[r], o.Regs[r]))
		}
	}
	cz, clt, cb := c.Flags()
	if cz != o.FlagZ || clt != o.FlagLT || cb != o.FlagB {
		reasons = append(reasons, fmt.Sprintf("flags: core=(z=%v lt=%v b=%v) oracle=(z=%v lt=%v b=%v)",
			cz, clt, cb, o.FlagZ, o.FlagLT, o.FlagB))
	}
	for _, pg := range pages {
		if r := comparePage(c, o, pg); r != "" {
			reasons = append(reasons, r)
		}
	}
	return reasons
}

func comparePage(c *cpu.CPU, o *Machine, pg uint64) string {
	addr := pg * mem.PageSize
	if end := addr + mem.PageSize; end > c.Mem.Size() || end > o.Mem.Size() {
		_, errA := c.Mem.PeekRaw(addr, mem.PageSize)
		_, errB := o.Mem.PeekRaw(addr, mem.PageSize)
		return fmt.Sprintf("page %#x: peek failed (core=%v oracle=%v)", pg, errA, errB)
	}
	if at, differ := mem.FirstDiff(c.Mem, o.Mem, addr, mem.PageSize); differ {
		return fmt.Sprintf("mem[%#x]: core=%#02x oracle=%#02x (page %#x)",
			at, peek8(c.Mem, at), peek8(o.Mem, at), pg)
	}
	return ""
}

// compareAllMemory sweeps two whole memories, naming them x and y in
// the reason.
func compareAllMemory(a, b *mem.Memory, x, y string) string {
	if sa, sb := a.Size(), b.Size(); sa != sb {
		return fmt.Sprintf("memory sizes differ: %s=%d %s=%d", x, sa, y, sb)
	}
	if at, differ := mem.FirstDiff(a, b, 0, a.Size()); differ {
		return fmt.Sprintf("final memory sweep: mem[%#x]: %s=%#02x %s=%#02x",
			at, x, peek8(a, at), y, peek8(b, at))
	}
	return ""
}

// peek8 reads the byte at an address FirstDiff reported, which lies
// inside the memory.
func peek8(m *mem.Memory, addr uint64) byte {
	b, _ := m.PeekRaw(addr, 1)
	return b[0]
}

// compareFaults decides whether two per-step errors are the same
// architectural event. Both sides wrap faults with the faulting PC
// (cpu.Fault / oracle.Fault); the causes are compared structurally for
// memory faults (kind + address) and by normalized message otherwise
// (each side prefixes its package name, which is stripped).
func compareFaults(errC, errO error) []string {
	if errC == nil {
		return []string{fmt.Sprintf("oracle faulted but core did not: %v", errO)}
	}
	if errO == nil {
		return []string{fmt.Sprintf("core faulted but oracle did not: %v", errC)}
	}
	var reasons []string
	pcC, keyC := faultKey(errC)
	pcO, keyO := faultKey(errO)
	if pcC != pcO {
		reasons = append(reasons, fmt.Sprintf("fault PC: core=%#x oracle=%#x", pcC, pcO))
	}
	if keyC != keyO {
		reasons = append(reasons, fmt.Sprintf("fault cause: core=%q oracle=%q", keyC, keyO))
	}
	return reasons
}

func faultKey(err error) (pc uint64, key string) {
	var cf *cpu.Fault
	var of *Fault
	inner := err
	switch {
	case errors.As(err, &cf):
		pc, inner = cf.PC, cf.Err
	case errors.As(err, &of):
		pc, inner = of.PC, of.Err
	}
	var mf *mem.Fault
	if errors.As(inner, &mf) {
		return pc, fmt.Sprintf("mem/%s/%#x", mf.Kind, mf.Addr)
	}
	msg := inner.Error()
	msg = strings.TrimPrefix(msg, "cpu: ")
	msg = strings.TrimPrefix(msg, "oracle: ")
	return pc, msg
}

// RunProgram sets up the optimized core and the reference machine over
// two identically initialized private memories for p and lock-steps them
// to completion. This is difftest's per-program kernel; cfg selects the
// micro-architectural posture under test (speculation on/off, InvisiSpec,
// fencing, noise...), none of which may change architectural results.
// The machines are a pooled rig's, reset to the state fresh ones start
// in; pre's arguments are valid only until RunProgram returns.
func RunProgram(p progen.Program, cfg cpu.Config, maxInstr uint64, pre PreStep) (Result, error) {
	r := rigs.Get().(*rig)
	defer rigs.Put(r)
	return r.runProgram(p, cfg, maxInstr, pre)
}

// runProgram is RunProgram on r's machines.
func (r *rig) runProgram(p progen.Program, cfg cpu.Config, maxInstr uint64, pre PreStep) (Result, error) {
	mc, err := r.load(0, p)
	if err != nil {
		return Result{}, fmt.Errorf("oracle: core memory: %w", err)
	}
	mo, err := r.load(1, p)
	if err != nil {
		return Result{}, fmt.Errorf("oracle: oracle memory: %w", err)
	}
	c := r.core(0, mc, cfg, p)
	o := &r.ref
	*o = Machine{Mem: mo, PC: p.CodeBase, PrivilegedFlush: cfg.PrivilegedFlush}
	o.Regs[isa.RegSP] = p.StackTop
	return Lockstep(c, o, maxInstr, pre), nil
}
