package oracle

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
)

// rigBudget is cmd/difftest's per-program budget.
const rigBudget = 200_000

// postures is the posture table.
var postures = Postures()

// rigCase is one program the reuse test runs on both axes, with hooks
// that may leave the machines they are handed dirty.
type rigCase struct {
	name  string
	p     progen.Program
	cfg   cpu.Config
	max   uint64
	slice uint64
	pre   PreStep
	tier  TierPreSlice
}

// describe renders every field of a case's two results.
func describe(res Result, err error, tres Result, terr error) string {
	return "lockstep: " + resultText(res, err) + "\ntier: " + resultText(tres, terr)
}

func resultText(r Result, err error) string {
	return fmt.Sprintf("err=%v steps=%d halted=%t budget=%t fault=%v blocks=%+v div=%s",
		err, r.Steps, r.Halted, r.BudgetExhausted, r.Fault, r.Blocks, divText(r.Div))
}

func divText(d *Divergence) string {
	if d == nil {
		return "none"
	}
	return d.String()
}

// fresh runs the case on zero rigs, which build every memory, core and
// reference machine anew: the outcome a pooled run must reproduce.
func (rc rigCase) fresh() string {
	res, err := new(rig).runProgram(rc.p, rc.cfg, rc.max, rc.pre)
	tres, terr := new(rig).runTierDiff(rc.p, rc.cfg, rc.max, rc.slice, rc.tier)
	return describe(res, err, tres, terr)
}

// pooled runs the case through the exported functions and their pool.
func (rc rigCase) pooled() string {
	res, err := RunProgram(rc.p, rc.cfg, rc.max, rc.pre)
	tres, terr := RunTierDiff(rc.p, rc.cfg, rc.max, rc.slice, rc.tier)
	return describe(res, err, tres, terr)
}

// craft is progen.Craft of a non-RWX program, failing t on an encode error.
func craft(t *testing.T, data []byte, instrs ...isa.Instruction) progen.Program {
	t.Helper()
	p, err := progen.Craft(instrs, data, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rigCases is generated programs under every posture, interleaved with
// runs that leave a rig dirty: the selftest's corrupting hooks on each
// memory and core, a scribble outside what the next load rewrites, a
// mid-run defense switch, a faulting program, a budget-capped one, and a
// program on a larger memory.
func rigCases(t *testing.T) []rigCase {
	def := cpu.DefaultConfig()
	store := craft(t, nil,
		isa.Instruction{Op: isa.MOVI, Rd: 10, Imm: progen.DataBase},
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 0x1122334455667788},
		isa.Instruction{Op: isa.ADDI, Rd: 5, Rs1: 5, Imm: 1},
		isa.Instruction{Op: isa.STORE, Rs1: 10, Rs2: 1, Imm: 64},
		isa.Instruction{Op: isa.XOR, Rd: 3, Rs1: 3, Rs2: 1},
		isa.Instruction{Op: isa.XOR, Rd: 3, Rs1: 3, Rs2: 1},
		isa.Instruction{Op: isa.HALT})
	straddle := craft(t, make([]byte, 2*mem.PageSize),
		isa.Instruction{Op: isa.MOVI, Rd: 10, Imm: progen.DataBase},
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 0x1122334455667788},
		isa.Instruction{Op: isa.STORE, Rs1: 10, Rs2: 1, Imm: mem.PageSize - 4},
		isa.Instruction{Op: isa.HALT})
	flush := craft(t, nil,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: progen.DataBase},
		isa.Instruction{Op: isa.CLFLUSH, Rs1: 1},
		isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1},
		isa.Instruction{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1},
		isa.Instruction{Op: isa.CLFLUSH, Rs1: 1, Imm: 64},
		isa.Instruction{Op: isa.HALT})
	divZero := craft(t, nil,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 9},
		isa.Instruction{Op: isa.DIVI, Rd: 0, Rs1: 1, Imm: 0},
		isa.Instruction{Op: isa.HALT})
	loop := craft(t, nil,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 0},
		isa.Instruction{Op: isa.STORE, Rs1: 12, Rs2: 1, Imm: progen.DataBase},
		isa.Instruction{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		isa.Instruction{Op: isa.JMP, Imm: progen.CodeBase + isa.InstrSize})
	big := store
	big.MemSize = 2 * progen.MemSize
	big.StackTop = big.MemSize - mem.PageSize

	dirty := []rigCase{
		{name: "write64", p: store, cfg: def, max: rigBudget, slice: 2,
			pre: func(step uint64, c *cpu.CPU, _ *Machine) {
				if step == 3 {
					_ = c.Mem.LoadRaw(progen.DataBase+80, []byte{0xEE})
				}
			},
			tier: func(slice uint64, blocks, _ *cpu.CPU) {
				if slice == 1 {
					blocks.Regs[5] ^= 0xdead
				}
			}},
		{name: "oracle-pages", p: straddle, cfg: def, max: rigBudget, slice: 1,
			pre: func(step uint64, _ *cpu.CPU, o *Machine) {
				if step == 2 {
					_ = o.Mem.LoadRaw(progen.DataBase+8, []byte{0xEE})
					_ = o.Mem.LoadRaw(progen.DataBase+mem.PageSize+64, []byte{0xEE})
				}
			},
			tier: func(slice uint64, _, single *cpu.CPU) {
				if slice == 2 {
					_ = single.Mem.LoadRaw(progen.DataBase+mem.PageSize+64, []byte{0xEE})
				}
			}},
		{name: "stack-scribble", p: store, cfg: postures[2].CPU, max: rigBudget,
			pre: func(step uint64, c *cpu.CPU, _ *Machine) {
				if step == 0 {
					_ = c.Mem.LoadRaw(store.StackTop-64, []byte{0xEE})
				}
			},
			tier: func(slice uint64, blocks, _ *cpu.CPU) {
				if slice == 0 {
					_ = blocks.Mem.LoadRaw(store.StackTop-64, []byte{0xEE})
				}
			}},
		{name: "set-defenses", p: flush, cfg: def, max: rigBudget, slice: 2,
			pre: func(step uint64, c *cpu.CPU, o *Machine) {
				if step == 3 {
					c.SetDefenses(true, false, false, true)
					o.PrivilegedFlush = true
				}
			},
			tier: func(slice uint64, blocks, single *cpu.CPU) {
				if slice == 1 {
					blocks.SetDefenses(false, true, true, true)
					single.SetDefenses(false, true, true, true)
				}
			}},
		{name: "cycle-skew", p: loop, cfg: postures[5].CPU, max: 4096,
			tier: func(slice uint64, blocks, _ *cpu.CPU) {
				if slice == 1 {
					blocks.Cycle += 7
				}
			}},
		{name: "div-zero", p: divZero, cfg: postures[7].CPU, max: rigBudget},
		{name: "budget", p: loop, cfg: postures[10].CPU, max: 4096},
		{name: "big-memory", p: big, cfg: def, max: rigBudget},
	}
	var cases []rigCase
	for i, pos := range postures {
		for _, seed := range []int64{int64(i) + 1, int64(i) + 101} {
			cases = append(cases, rigCase{name: fmt.Sprintf("posture %d seed %d", i, seed),
				p: progen.Generate(seed, progen.DefaultOptions()), cfg: pos.CPU, max: rigBudget})
		}
		if i < len(dirty) {
			cases = append(cases, dirty[i])
		}
	}
	return cases
}

// TestRigReuseMatchesFresh runs every case through the pool from four
// goroutines, each starting at a different case, so rigs pass between
// postures and past dirty runs in many orders. Each result must equal
// the case's run on fresh machines. Under -race the pool drops about a
// quarter of its Puts, so fresh and reused rigs both run.
func TestRigReuseMatchesFresh(t *testing.T) {
	cases := rigCases(t)
	want := make([]string, len(cases))
	for i, rc := range cases {
		want[i] = rc.fresh()
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/goroutines) % len(cases)
				if got := cases[i].pooled(); got != want[i] {
					t.Errorf("%s: reused rig differs from fresh machines:\ngot:\n%s\nwant:\n%s", cases[i].name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunProgramAllocs gates the reuse: once the pool holds a rig, a
// RunProgram plus RunTierDiff pair builds no memory, core, predecode
// table or backed page. Fresh machines cost the pair about 460 KB. Over
// cmd/difftest's posture ring, once a lap has run every posture, a pair
// builds no branch unit either, and compiles its blocks into the ones
// earlier programs left.
func TestRunProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled rigs at random")
	}
	// One P, so every Get finds the rig the previous Put left.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pair := func(p progen.Program, cfg cpu.Config) {
		if _, err := RunProgram(p, cfg, rigBudget, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := RunTierDiff(p, cfg, rigBudget, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	perPair := func(pairs int, run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(pairs)
	}

	p := progen.Generate(1, progen.DefaultOptions())
	cfg := cpu.DefaultConfig()
	pair(p, cfg)
	const pairs = 20
	if got := perPair(pairs, func() {
		for i := 0; i < pairs; i++ {
			pair(p, cfg)
		}
	}); got >= 64<<10 {
		t.Errorf("a RunProgram + RunTierDiff pair allocates %d B, want < 64 KiB", got)
	}

	progs := make([]progen.Program, 60)
	for i := range progs {
		progs[i] = progen.Generate(int64(i)+1, progen.DefaultOptions())
	}
	lap := func() {
		for i, p := range progs {
			pair(p, postures[i%len(postures)].CPU)
		}
	}
	lap()
	if got := perPair(len(progs), lap); got >= 8<<10 {
		t.Errorf("over the posture ring a RunProgram + RunTierDiff pair allocates %d B, want < 8 KiB", got)
	}
}
