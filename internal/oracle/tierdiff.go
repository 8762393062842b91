package oracle

import (
	"fmt"
	"reflect"

	"repro/internal/cpu"
	"repro/internal/progen"
)

// TierPreSlice, when non-nil, runs before each slice of a tier-diff run.
// Like PreStep it exists for fault injection in the harness's own tests
// (difftest -selftest corrupts one side through it to prove the ring
// would catch a broken block tier); production runs pass nil.
type TierPreSlice func(slice uint64, blocks, single *cpu.CPU)

// RunTierDiff runs p on two optimized cores over identically initialized
// private memories — one with the superblock tier enabled, one forced to
// the single-step interpreter — and compares them under a contract
// strictly harsher than Lockstep's: not just the architectural state but
// the *entire* PMU snapshot, Cycle and StallCycles included, must agree
// at every comparison point. The block tier is a host optimization of
// the same simulated machine, so there is no micro-architectural
// exemption (DESIGN.md §11); the golden figure CSVs are differences of
// exactly these counters.
//
// The cores advance in slices of sliceInstr retired instructions (the
// block tier retires exactly its budget unless it halts or faults, so
// both sides stay aligned), letting a divergence be localized to a slice
// without paying a per-instruction Run call. sliceInstr == 0 picks a
// default that exercises block re-entry across slice boundaries. Like
// RunProgram's, the cores are a pooled rig's, and pre's arguments are
// valid only until RunTierDiff returns.
func RunTierDiff(p progen.Program, cfg cpu.Config, maxInstr, sliceInstr uint64, pre TierPreSlice) (Result, error) {
	r := rigs.Get().(*rig)
	defer rigs.Put(r)
	return r.runTierDiff(p, cfg, maxInstr, sliceInstr, pre)
}

// runTierDiff is RunTierDiff on r's cores.
func (r *rig) runTierDiff(p progen.Program, cfg cpu.Config, maxInstr, sliceInstr uint64, pre TierPreSlice) (Result, error) {
	if sliceInstr == 0 {
		sliceInstr = 257 // prime: slice edges drift across block boundaries
	}
	mb, ms, err := r.load(p, "block-tier", "single-step")
	if err != nil {
		return Result{}, err
	}
	cfgB, cfgS := cfg, cfg
	cfgB.NoBlocks = false
	cfgS.NoBlocks = true
	cb := r.core(0, mb, cfgB, p)
	cs := r.core(1, ms, cfgS, p)

	var res Result
	for slice := uint64(0); res.Steps < maxInstr; slice++ {
		if pre != nil {
			pre(slice, cb, cs)
		}
		budget := sliceInstr
		if rem := maxInstr - res.Steps; rem < budget {
			budget = rem
		}
		errB := runSlice(cb, budget)
		errS := runSlice(cs, budget)
		res.Steps = cb.Instret()
		res.Blocks = cb.BlockStats()

		if errB != nil || errS != nil {
			if reasons := compareFaults(errB, errS, "blocks", "single-step"); len(reasons) > 0 {
				res.Div = &Divergence{Step: res.Steps, PC: cb.PC, Reasons: reasons}
				return res, nil
			}
			res.Fault = errB
		}
		if reasons := compareTiers(cb, cs); len(reasons) > 0 {
			res.Div = &Divergence{Step: res.Steps, PC: cb.PC, Reasons: reasons}
			return res, nil
		}
		if res.Fault != nil {
			return res, nil
		}
		if cb.Halted() {
			res.Halted = true
			return res, nil
		}
	}
	res.BudgetExhausted = true
	return res, nil
}

// runSlice advances c by up to n retired instructions, treating budget
// exhaustion as a non-event.
func runSlice(c *cpu.CPU, n uint64) error {
	if err := c.Run(n); err != nil && err != cpu.ErrBudget {
		return err
	}
	return nil
}

// compareTiers checks the tier contract: full architectural state, the
// complete PMU snapshot, and every dirtied byte of memory.
func compareTiers(cb, cs *cpu.CPU) []string {
	reasons := compareArch(coreArch(cb), coreArch(cs), "blocks", "single-step")
	if sb, ss := cb.Snapshot(), cs.Snapshot(); sb != ss {
		reasons = append(reasons, snapshotDiff(sb, ss)...)
	}
	if reason := compareAllMemory(cb.Mem, cs.Mem, "blocks", "single-step"); reason != "" {
		reasons = append(reasons, reason)
	}
	return reasons
}

// snapshotDiff names every PMU counter the tiers disagree on. It walks
// cpu.Snapshot's fields, so a counter added there joins the contract.
func snapshotDiff(a, b cpu.Snapshot) []string {
	var reasons []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		if x, y := va.Field(i).Uint(), vb.Field(i).Uint(); x != y {
			reasons = append(reasons, fmt.Sprintf("pmu %s: blocks=%d single-step=%d", va.Type().Field(i).Name, x, y))
		}
	}
	return reasons
}
