package oracle_test

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
)

const testBudget = 200_000

// TestLockstepRandomPrograms is the in-tree slice of the difftest soak:
// every generated program must either halt, exhaust its budget, or fault
// identically on both sides — never diverge.
func TestLockstepRandomPrograms(t *testing.T) {
	var halted, faulted, budget int
	for seed := int64(1); seed <= 60; seed++ {
		p := progen.Generate(seed, progen.DefaultOptions())
		res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d diverged after %d steps:\n%v\nprogram:\n%s",
				seed, res.Steps, res.Div, p.Disasm(0))
		}
		switch {
		case res.Halted:
			halted++
		case res.Fault != nil:
			faulted++
		case res.BudgetExhausted:
			budget++
		}
	}
	t.Logf("60 seeds: %d halted, %d faulted, %d budget-capped", halted, faulted, budget)
	if halted == 0 {
		t.Fatal("no generated program ran to completion; generator is broken")
	}
}

// TestLockstepConfigSweep re-runs a band of seeds under every posture of
// oracle.Postures, the table difftest cycles through. None of these knobs
// may change architectural results, including post-squash state after
// wrong-path speculation (the speculation-consistency mode).
func TestLockstepConfigSweep(t *testing.T) {
	for _, pos := range oracle.Postures() {
		t.Run(pos.Name, func(t *testing.T) {
			for seed := int64(100); seed < 112; seed++ {
				p := progen.Generate(seed, progen.DefaultOptions())
				res, err := oracle.RunProgram(p, pos.CPU, testBudget, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Clean() {
					t.Fatalf("seed %d diverged after %d steps:\n%v\nprogram:\n%s",
						seed, res.Steps, res.Div, p.Disasm(0))
				}
			}
		})
	}
}

// TestIdenticalFaultIsClean: a program that divides by zero must fault on
// both sides with the same PC and cause, and that counts as agreement.
func TestIdenticalFaultIsClean(t *testing.T) {
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 1, Imm: 9},
		{Op: isa.DIVI, Rd: 0, Rs1: 1, Imm: 0},
		{Op: isa.HALT},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("identical faults reported as divergence:\n%v", res.Div)
	}
	if res.Fault == nil {
		t.Fatalf("expected an agreed fault, got %+v", res)
	}
}

// TestUnmappedFaultAgreement: both sides must agree on memory faults,
// including the faulting address of a page-straddling access.
func TestUnmappedFaultAgreement(t *testing.T) {
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 10, Imm: int64(progen.DataBase)},
		// Data region in Craft programs is one page; +4093 straddles into
		// the unmapped page after it.
		{Op: isa.LOAD, Rd: 0, Rs1: 10, Imm: 4093},
		{Op: isa.HALT},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("straddle fault divergence:\n%v", res.Div)
	}
	if res.Fault == nil {
		t.Fatal("expected a fault for a load straddling off the data region")
	}
}

// brokenFastPath simulates a memory fast-path bug on the optimized side:
// at the chosen step it silently clobbers a byte on the page the step's
// store is about to dirty, exactly as a mis-masked Write64 would.
func brokenFastPath(atStep uint64, addr uint64) oracle.PreStep {
	return func(step uint64, c *cpu.CPU, o *oracle.Machine) {
		if step == atStep {
			// LoadRaw bypasses permission checks and the OnWrite hook, so
			// the corruption is invisible until a comparison looks at the
			// page — like a real silent-corruption bug.
			_ = c.Mem.LoadRaw(addr, []byte{0xEE})
		}
	}
}

// TestBrokenFastPathCaughtAndMinimized is the acceptance gate: a seeded
// mutation that breaks a mem fast path must be caught by the lock-step
// comparison and minimized to a prefix of at most 16 instructions.
func TestBrokenFastPathCaughtAndMinimized(t *testing.T) {
	// A program with the interesting store early and plenty of padding
	// after, so minimization has something to cut.
	instrs := []isa.Instruction{
		{Op: isa.MOVI, Rd: 10, Imm: int64(progen.DataBase)}, // 0
		{Op: isa.MOVI, Rd: 1, Imm: 0x1122334455667788},      // 1
	}
	for i := 0; i < 8; i++ { // 2..9: padding before the store
		instrs = append(instrs, isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1})
	}
	const storeStep = 10
	instrs = append(instrs, isa.Instruction{Op: isa.STORE, Rs1: 10, Rs2: 1, Imm: 64}) // 10
	for i := 0; i < 40; i++ {                                                         // long tail the minimizer must discard
		instrs = append(instrs, isa.Instruction{Op: isa.XOR, Rd: 3, Rs1: 3, Rs2: 2})
	}
	instrs = append(instrs, isa.Instruction{Op: isa.HALT})
	p, err := progen.Craft(instrs, nil, false)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt a byte on the store's page but outside its written range,
	// as a mis-masked wide write would.
	pre := brokenFastPath(storeStep, progen.DataBase+80)
	cfg := cpu.DefaultConfig()
	res, err := oracle.RunProgram(p, cfg, testBudget, pre)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("injected fast-path corruption was not detected")
	}
	t.Logf("detected: %v", res.Div)

	min, n, mres, ok := oracle.Minimize(p, func(p progen.Program) (oracle.Result, error) {
		return oracle.RunProgram(p, cfg, testBudget, pre)
	})
	if !ok {
		t.Fatal("minimizer failed to reproduce the divergence")
	}
	if n > 16 {
		t.Fatalf("minimized prefix is %d instructions, want <= 16", n)
	}
	if mres.Clean() {
		t.Fatal("minimized program does not diverge")
	}
	t.Logf("minimized to %d instructions:\n%s", n, min.Disasm(n))
}

// TestLockstepDetectsRegisterDivergence: corrupting a register on one
// side must be caught at the next retire boundary.
func TestLockstepDetectsRegisterDivergence(t *testing.T) {
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 0, Imm: 1},
		{Op: isa.ADDI, Rd: 0, Rs1: 0, Imm: 1},
		{Op: isa.ADDI, Rd: 0, Rs1: 0, Imm: 1},
		{Op: isa.HALT},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	pre := func(step uint64, c *cpu.CPU, o *oracle.Machine) {
		if step == 2 {
			o.Regs[0] ^= 0x80 // oracle-side corruption: core is "wrong" too
		}
	}
	res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, pre)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("register divergence not detected")
	}
	if res.Div.Step != 2 {
		t.Fatalf("divergence at step %d, want 2:\n%v", res.Div.Step, res.Div)
	}
}

// TestDivergenceReasonsInPageOrder: when one step dirties two pages that
// both differ, the reasons name them in ascending page order on every
// run, so difftest's repro report and Minimize's output repeat exactly.
func TestDivergenceReasonsInPageOrder(t *testing.T) {
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 10, Imm: progen.DataBase},
		{Op: isa.MOVI, Rd: 1, Imm: 0x1122334455667788},
		{Op: isa.STORE, Rs1: 10, Rs2: 1, Imm: mem.PageSize - 4}, // straddles both data pages
		{Op: isa.HALT},
	}, make([]byte, 2*mem.PageSize), false)
	if err != nil {
		t.Fatal(err)
	}
	pre := func(step uint64, _ *cpu.CPU, o *oracle.Machine) {
		if step == 2 {
			_ = o.Mem.LoadRaw(progen.DataBase+8, []byte{0xEE})
			_ = o.Mem.LoadRaw(progen.DataBase+mem.PageSize+64, []byte{0xEE})
		}
	}
	var first string
	for i := 0; i < 64; i++ {
		res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, pre)
		if err != nil {
			t.Fatal(err)
		}
		if res.Clean() || len(res.Div.Reasons) != 2 {
			t.Fatalf("want a divergence on both pages, got %+v", res)
		}
		text := res.Div.String()
		if i == 0 {
			first = text
			lo, hi := strings.Index(text, "(page 0x40)"), strings.Index(text, "(page 0x41)")
			if lo < 0 || hi < lo {
				t.Fatalf("pages not in ascending order:\n%s", text)
			}
		} else if text != first {
			t.Fatalf("run %d reads differently:\n%s\nfirst run:\n%s", i, text, first)
		}
	}
}

// TestOracleStandalone exercises the reference machine on its own: the
// deliberately slow interpreter is itself a public API and must run a
// program to halt without the differential harness.
func TestOracleStandalone(t *testing.T) {
	p, err := progen.Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 0, Imm: 5},
		{Op: isa.MOVI, Rd: 1, Imm: 7},
		{Op: isa.MUL, Rd: 2, Rs1: 0, Rs2: 1},
		{Op: isa.PUSH, Rs1: 2},
		{Op: isa.POP, Rd: 3},
		{Op: isa.HALT},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewMem()
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New(m)
	o.PC = p.CodeBase
	o.Regs[isa.RegSP] = p.StackTop
	if err := o.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !o.Halted {
		t.Fatal("oracle did not halt")
	}
	if o.Regs[2] != 35 || o.Regs[3] != 35 {
		t.Fatalf("r2=%d r3=%d, want 35", o.Regs[2], o.Regs[3])
	}
	if o.Regs[isa.RegSP] != p.StackTop {
		t.Fatalf("sp=%#x, want %#x (balanced push/pop)", o.Regs[isa.RegSP], p.StackTop)
	}
	if o.Instret != 6 {
		t.Fatalf("instret=%d, want 6", o.Instret)
	}
}

// TestDefenseSwitchMidRunStaysLockstepped: flipping the defense knobs on
// a LIVE run (cpu.SetDefenses mirrored onto the oracle's
// PrivilegedFlush) must not open any architectural gap — including when
// the switch makes an in-flight program start faulting.
func TestDefenseSwitchMidRunStaysLockstepped(t *testing.T) {
	instrs := []isa.Instruction{
		{Op: isa.MOVI, Rd: 1, Imm: int64(progen.DataBase)},
		{Op: isa.CLFLUSH, Rs1: 1}, // legal under the lax posture
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1},
		{Op: isa.CLFLUSH, Rs1: 1, Imm: 64}, // faults after the switch
		{Op: isa.HALT},
	}
	p, err := progen.Craft(instrs, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	pre := func(step uint64, c *cpu.CPU, o *oracle.Machine) {
		if step == 3 {
			c.SetDefenses(true, false, false, true)
			o.PrivilegedFlush = true
		}
	}
	res, err := oracle.RunProgram(p, cpu.DefaultConfig(), testBudget, pre)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("defense switch diverged:\n%v", res.Div)
	}
	if res.Fault == nil {
		t.Fatal("second CLFLUSH should fault once PrivilegedFlush is on")
	}
}

// TestZeroLenPeek guards the mem.check zero-length underflow fix at the
// oracle's comparison layer: PeekRaw/ReadBytes with n=0 on a fully
// mapped memory must not panic (it used to walk perms off the end).
func TestZeroLenPeek(t *testing.T) {
	m := mem.New(2 * mem.PageSize)
	if err := m.Protect(0, 2*mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadBytes(0, 0); err != nil {
		t.Fatalf("zero-length read: %v", err)
	}
}
