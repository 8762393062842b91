package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/progen"
)

// TestTierDiffRandomPrograms is the block tier's counterpart of
// TestLockstepRandomPrograms, under the harsher tier contract: the full
// PMU snapshot (Cycle and StallCycles included) must match the
// single-step interpreter at every slice boundary.
func TestTierDiffRandomPrograms(t *testing.T) {
	var halted, faulted, engaged int
	for seed := int64(1); seed <= 60; seed++ {
		p := progen.Generate(seed, progen.DefaultOptions())
		res, err := oracle.RunTierDiff(p, cpu.DefaultConfig(), testBudget, 0, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d tier divergence after %d steps:\n%v\nprogram:\n%s",
				seed, res.Steps, res.Div, p.Disasm(0))
		}
		switch {
		case res.Halted:
			halted++
		case res.Fault != nil:
			faulted++
		}
		if res.Blocks.Hits > 0 {
			engaged++
		}
	}
	t.Logf("60 seeds: %d halted, %d faulted, %d engaged the block tier", halted, faulted, engaged)
	if halted == 0 {
		t.Fatal("no generated program ran to completion; generator is broken")
	}
	if engaged < 50 {
		t.Fatalf("block tier engaged on only %d/60 programs; the diff is comparing the interpreter with itself", engaged)
	}
}

// TestTierDiffConfigSweep re-runs a seed band under every posture of
// oracle.Postures. The block tier must be cycle-exact under all of them —
// speculation episodes, squashed cache effects, noise injection,
// privileged-flush faults, indirect-target and store-bypass speculation
// included.
func TestTierDiffConfigSweep(t *testing.T) {
	for _, pos := range oracle.Postures() {
		t.Run(pos.Name, func(t *testing.T) {
			for seed := int64(100); seed < 112; seed++ {
				p := progen.Generate(seed, progen.DefaultOptions())
				res, err := oracle.RunTierDiff(p, pos.CPU, testBudget, 0, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Clean() {
					t.Fatalf("seed %d tier divergence after %d steps:\n%v\nprogram:\n%s",
						seed, res.Steps, res.Div, p.Disasm(0))
				}
			}
		})
	}
}

// TestTierDiffGadgets runs the Spectre-shaped gadget generators through
// the tier diff: these programs are built to trigger speculation
// episodes, store bypasses and BTB-injected wrong paths — exactly the
// machinery the block tier must hand over byte-for-byte.
func TestTierDiffGadgets(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, kind := range []progen.GadgetKind{progen.GadgetLeak, progen.GadgetV2Inject, progen.GadgetSSB} {
		for seed := int64(1); seed <= 8; seed++ {
			p, meta := progen.GenerateGadget(seed, kind)
			res, err := oracle.RunTierDiff(p, cfg, testBudget, 0, nil)
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			if !res.Clean() {
				t.Fatalf("%v seed %d (%+v) tier divergence after %d steps:\n%v\nprogram:\n%s",
					kind, seed, meta, res.Steps, res.Div, p.Disasm(0))
			}
		}
	}
}

// tierDiffLoop crafts an endless counting loop: it never halts (the
// tier-diff budget caps it), so the injection hooks below are guaranteed
// to fire on whichever slice they target, and r5 is never architecturally
// written, so an injected corruption survives to the slice compare.
func tierDiffLoop(t *testing.T) progen.Program {
	t.Helper()
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 1, Imm: 0},
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.JMP, Imm: int64(progen.CodeBase + isa.InstrSize)},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTierDiffDetectsInjectedCorruption proves the harness would catch a
// broken block tier: corrupting one side's register file between slices
// must surface as a divergence naming the register.
func TestTierDiffDetectsInjectedCorruption(t *testing.T) {
	p := tierDiffLoop(t) // budget-capped loop: every slice runs and r5 is never written
	res, err := oracle.RunTierDiff(p, cpu.DefaultConfig(), 4096, 0,
		func(slice uint64, blocks, single *cpu.CPU) {
			if slice == 2 {
				blocks.Regs[5] ^= 0xdead
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("injected register corruption was not detected")
	}
	if !strings.Contains(res.Div.String(), "r5") {
		t.Fatalf("divergence does not name the corrupted register:\n%v", res.Div)
	}
}

// TestTierDiffMemoryReasonNamesTiers: a byte written into the block-tier
// core's data page surfaces as one final-sweep reason that names the two
// tiers, not the lock-step harness's core and oracle.
func TestTierDiffMemoryReasonNamesTiers(t *testing.T) {
	p := tierDiffLoop(t)
	res, err := oracle.RunTierDiff(p, cpu.DefaultConfig(), 4096, 0,
		func(slice uint64, blocks, single *cpu.CPU) {
			if slice == 1 {
				if err := blocks.Mem.Write8(progen.DataBase+8, 0xee); err != nil {
					t.Error(err)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("injected memory write was not detected")
	}
	want := fmt.Sprintf("final memory sweep: mem[%#x]: blocks=0xee single-step=0x00", progen.DataBase+8)
	if len(res.Div.Reasons) != 1 || res.Div.Reasons[0] != want {
		t.Fatalf("reasons %q, want exactly %q", res.Div.Reasons, want)
	}
}

// TestTierDiffDetectsCycleSkew: the tier contract is harsher than the
// architectural one — even a pure timing skew (no architectural change)
// must be reported, because the golden figure CSVs difference cycle
// counts.
func TestTierDiffDetectsCycleSkew(t *testing.T) {
	p := tierDiffLoop(t)
	res, err := oracle.RunTierDiff(p, cpu.DefaultConfig(), 4096, 0,
		func(slice uint64, blocks, single *cpu.CPU) {
			if slice == 1 {
				blocks.Cycle += 7
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("injected cycle skew was not detected")
	}
	if !strings.Contains(res.Div.String(), "Cycles") {
		t.Fatalf("divergence does not name the cycle counter:\n%v", res.Div)
	}
}

// TestTierDiffFaultReasonsNameTiers: when a slice hook sends a core to
// an unmapped PC, the fault mismatch names the two tiers, not the
// lock-step harness's core and oracle, whichever side faults.
func TestTierDiffFaultReasonsNameTiers(t *testing.T) {
	p := tierDiffLoop(t)
	unmapped := p.MemSize + 0x1000
	for _, tc := range []struct {
		name               string
		blocksPC, singlePC uint64 // where the hook sends each core; 0 leaves it
		want               string
	}{
		{"blocks", unmapped, 0, "blocks faulted but single-step did not: "},
		{"single-step", 0, unmapped, "single-step faulted but blocks did not: "},
		{"both", unmapped, unmapped + isa.InstrSize, "fault PC: blocks="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := oracle.RunTierDiff(p, cpu.DefaultConfig(), 4096, 0,
				func(slice uint64, blocks, single *cpu.CPU) {
					if slice == 1 && tc.blocksPC != 0 {
						blocks.PC = tc.blocksPC
					}
					if slice == 1 && tc.singlePC != 0 {
						single.PC = tc.singlePC
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if res.Clean() {
				t.Fatal("a core sent to an unmapped PC did not diverge")
			}
			text := strings.Join(res.Div.Reasons, "\n")
			if !strings.HasPrefix(text, tc.want) || !strings.Contains(text, "single-step") {
				t.Errorf("reasons %q, want them to start %q", res.Div.Reasons, tc.want)
			}
			for _, bad := range []string{"core=", "oracle=", "faulted but core", "core faulted", "oracle faulted"} {
				if strings.Contains(text, bad) {
					t.Errorf("reasons %q name the lock-step sides (%q)", res.Div.Reasons, bad)
				}
			}
		})
	}
}

// TestTierDiffBudget: like Lockstep, the tier diff reports a run it
// stopped on its budget, and only such a run.
func TestTierDiffBudget(t *testing.T) {
	res, err := oracle.RunTierDiff(tierDiffLoop(t), cpu.DefaultConfig(), 4096, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || !res.BudgetExhausted || res.Halted || res.Steps != 4096 {
		t.Errorf("budget-capped loop: clean %t, budget %t, halted %t, %d steps; want a clean budget stop at 4096",
			res.Clean(), res.BudgetExhausted, res.Halted, res.Steps)
	}
	halting := progen.Generate(1, progen.DefaultOptions())
	if res, err = oracle.RunTierDiff(halting, cpu.DefaultConfig(), testBudget, 0, nil); err != nil {
		t.Fatal(err)
	}
	if res.BudgetExhausted != !(res.Halted || res.Fault != nil) {
		t.Errorf("seed 1: budget %t, halted %t, fault %v", res.BudgetExhausted, res.Halted, res.Fault)
	}
}
