package vm_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// resetBin is one binary a reset scenario registers.
type resetBin struct {
	name string
	mod  *isa.Module
	base uint64
}

// resetProgram is one guest scenario FuzzMachineResetEquivalence runs:
// the binaries to register, the one to start and its argument.
type resetProgram struct {
	main string
	arg  []byte
	bins []resetBin
}

// resetChild is the EXEC target: its default entry prints a number and
// exits, its alt entry prints the OnLoad hook's canary and exits.
var resetChild = isa.MustAssemble(`
	movi r0, 2
	movi r1, 42
	syscall
	movi r0, 0
	movi r1, 3
	syscall
alt:
	movi r3, canary
	load r1, [r3]
	movi r0, 2
	syscall
	movi r0, 0
	movi r1, 9
	syscall
.data
canary: .word 0
`)

// resetExec builds a parent that prints a byte and EXECs path.
func resetExec(path string) *isa.Module {
	return isa.MustAssemble(fmt.Sprintf(`
	movi r0, 1
	movi r1, 'p'
	syscall
	movi r0, 3
	movi r1, path
	syscall
	halt
.data
path: .asciz %q
`, path))
}

func resetMathHost() *isa.Module {
	mod, err := mibench.Math(20).HostModule(rop.HostOptions{})
	if err != nil {
		panic(err)
	}
	return mod
}

// resetPrograms is the fuzz target's scenario ring. Every base stays
// inside the smaller memory the posture can pick even at the largest
// ASLR slide.
var resetPrograms = []resetProgram{
	// EXEC of a second binary at its default entry.
	{main: "parent", bins: []resetBin{{"parent", resetExec("child"), 0x100000}, {"child", resetChild, 0x280000}}},
	// EXEC at a named entry, which prints the OnLoad hook's canary.
	{main: "parent", bins: []resetBin{{"parent", resetExec("child#alt"), 0x100000}, {"child", resetChild, 0x280000}}},
	// A MiBench host on a benign argument.
	{main: "math", arg: []byte("x"), bins: []resetBin{{"math", resetMathHost(), 0x100000}}},
	// A zero-filled table, loaded without backing, written page by page.
	{main: "table", bins: []resetBin{{"table", isa.MustAssemble(`
	movi r3, tab
	movi r4, 5
	movi r5, 0
fill:
	store [r3], r4
	addi r4, r4, 7
	addi r3, r3, 4096
	addi r5, r5, 1
	cmpi r5, 12
	jb fill
	subi r3, r3, 4096
	load r1, [r3]
	movi r0, 2
	syscall
	movi r3, canary
	load r1, [r3]
	movi r0, 2
	syscall
	movi r0, 0
	movi r1, 0
	syscall
.data
canary: .word 0
.align 64
tab: .space 65536
`), 0x100000}}},
	// A store to the saved-return-address slot, then a stack-smash abort.
	{main: "smash", bins: []resetBin{{"smash", isa.MustAssemble(`
	movi r0, 1
	movi r1, 's'
	syscall
	mov r2, sp
	subi r2, r2, 8
	store [r2], r1
	movi r0, 4
	movi r1, 0x57ac
	syscall
`), 0x100000}}},
	// A jump onto the stack: a DEP fault unless the stack is executable.
	{main: "stackjump", bins: []resetBin{{"stackjump", isa.MustAssemble(`
	mov r1, sp
	subi r1, r1, 64
	jmpr r1
`), 0x100000}}},
	// A store into the program's own code: a W^X fault.
	{main: "selfmod", bins: []resetBin{{"selfmod", isa.MustAssemble(`
_start:
	movi r1, _start
	movi r2, 1
	store [r1], r2
	halt
`), 0x100000}}},
}

// resetConfig decodes a posture: bit 0 makes the stack executable, bit 1
// attaches a recorder, bit 2 picks a 4 MiB memory instead of 16 MiB.
// ASLR is always on, seeded by seed.
func resetConfig(post uint8, seed int64) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.ASLR, cfg.ASLRSeed = true, seed
	cfg.StackExecutable = post&1 != 0
	if post&2 != 0 {
		cfg.Telemetry = telemetry.NewRecorder(256)
	}
	if post&4 != 0 {
		cfg.MemSize = 4 << 20
	}
	return cfg
}

// machineRun is the observable outcome of one scenario run: everything
// FuzzMachineResetEquivalence requires a reset machine to reproduce.
type machineRun struct {
	err      string
	output   string
	exitCode uint64
	aborted  bool
	execLog  []string
	loads    []string    // OnLoad calls, in order
	images   [][3]uint64 // base, data base and entry of each loaded binary
	stackTop uint64
	snap     cpu.Snapshot
	regs     [isa.NumRegs]uint64
	pc       uint64
	blocks   cpu.BlockStats
	counts   map[string]uint64
}

// runScenario registers p's binaries on m, installs an OnLoad hook that
// writes a per-image canary, runs p for budget instructions and records
// the outcome.
func runScenario(m *vm.Machine, p resetProgram, budget uint64) machineRun {
	var r machineRun
	m.OnLoad = func(name string, img *isa.Image) {
		r.loads = append(r.loads, name)
		if a, ok := img.Symbol("canary"); ok {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], img.Base^uint64(len(name))*0x9e3779b97f4a7c15)
			if err := m.Mem.LoadRaw(a, w[:]); err != nil {
				panic(err)
			}
		}
	}
	for _, b := range p.bins {
		m.Register(b.name, b.mod, b.base)
	}
	if err := m.Exec(p.main, p.arg, budget); err != nil {
		r.err = err.Error()
	}
	r.output, r.exitCode, r.aborted, r.execLog = m.Output.String(), m.ExitCode, m.Aborted, m.ExecLog
	for _, b := range p.bins {
		if img, ok := m.Image(b.name); ok {
			r.images = append(r.images, [3]uint64{img.Base, img.DataBase, img.Entry})
		}
	}
	r.stackTop = m.StackTop()
	r.snap, r.regs, r.pc, r.blocks = m.CPU.Snapshot(), m.CPU.Regs, m.CPU.PC, m.CPU.BlockStats()
	if rec := m.CPU.Telemetry(); rec != nil {
		r.counts = rec.Counts()
	}
	return r
}

const resetBudget = 2_000_000

// FuzzMachineResetEquivalence holds Machine.Reset to its contract: a
// machine that ran scenario A under one configuration, then was reset to
// another and ran scenario B, matches a machine New built for B — output,
// exit state, exec log, OnLoad calls, ASLR-slid image bases, the core's
// Snapshot, registers, PC, BlockStats, telemetry counts and every memory
// byte. The configurations differ in the ASLR seed, an executable stack,
// an attached recorder and the memory size (which rebuilds the memory).
// A may stop on its budget (stopA > 0) with a binary half run.
func FuzzMachineResetEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1), int64(2), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(2), int64(5), int64(6), uint8(2), uint8(0), uint16(0))   // traced A, untraced B
	f.Add(uint8(3), uint8(2), int64(7), int64(7), uint8(4), uint8(0), uint16(0))   // 4 MiB -> 16 MiB
	f.Add(uint8(4), uint8(5), int64(1), int64(1), uint8(3), uint8(1), uint16(0))   // smash traced, executable stack
	f.Add(uint8(5), uint8(5), int64(3), int64(3), uint8(1), uint8(0), uint16(0))   // executable stack, then DEP
	f.Add(uint8(2), uint8(1), int64(9), int64(9), uint8(0), uint8(2), uint16(300)) // A stopped mid-run
	f.Add(uint8(6), uint8(3), int64(0), int64(4), uint8(0), uint8(4), uint16(0))   // W^X fault, then 4 MiB
	f.Add(uint8(1), uint8(0), int64(4), int64(4), uint8(6), uint8(6), uint16(0))   // both traced, 4 MiB
	f.Fuzz(func(t *testing.T, progA, progB uint8, seedA, seedB int64, postA, postB uint8, stopA uint16) {
		pa := resetPrograms[int(progA)%len(resetPrograms)]
		pb := resetPrograms[int(progB)%len(resetPrograms)]
		budgetA := uint64(resetBudget)
		if stopA > 0 {
			budgetA = uint64(stopA)
		}
		cfgA := resetConfig(postA, seedA)
		m := vm.New(cfgA)
		runScenario(m, pa, budgetA)
		var countsA map[string]uint64
		if cfgA.Telemetry != nil {
			countsA = cfgA.Telemetry.Counts()
		}

		cfgB := resetConfig(postB, seedB)
		m.Reset(cfgB)
		if m.OnLoad != nil {
			t.Fatal("Reset kept the OnLoad hook")
		}
		reused := runScenario(m, pb, resetBudget)

		cfgFresh := cfgB
		if cfgB.Telemetry != nil {
			cfgFresh.Telemetry = telemetry.NewRecorder(256)
		}
		mf := vm.New(cfgFresh)
		fresh := runScenario(mf, pb, resetBudget)

		where := fmt.Sprintf("A=%d posture %d seed %d (stop %d), B=%d posture %d seed %d",
			progA, postA, seedA, stopA, progB, postB, seedB)
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("%s:\nreused %+v\nfresh  %+v", where, reused, fresh)
		}
		if countsA != nil && !reflect.DeepEqual(cfgA.Telemetry.Counts(), countsA) {
			t.Fatalf("%s: B's run still reported to A's recorder", where)
		}
		if m.Mem.Size() != mf.Mem.Size() {
			t.Fatalf("%s: memory size %d, fresh %d", where, m.Mem.Size(), mf.Mem.Size())
		}
		if at, differ := mem.FirstDiff(m.Mem, mf.Mem, 0, m.Mem.Size()); differ {
			t.Fatalf("%s: memory differs at %#x", where, at)
		}
	})
}

// TestResetScenariosRun keeps the scenario ring honest: each runs to the
// outcome it is there for on a new machine, so the fuzz target compares
// runs that do something.
func TestResetScenariosRun(t *testing.T) {
	want := []struct {
		output string
		fault  bool
	}{
		{"p42\n", false},
		{"p", false}, // the canary follows; it depends on the slide
		{mibench.Math(20).Expected(), false},
		{"82\n", false},
		{"s", false},
		{"", true},
		{"", true},
	}
	for i, p := range resetPrograms {
		r := runScenario(vm.New(resetConfig(0, 1)), p, resetBudget)
		if !strings.HasPrefix(r.output, want[i].output) || (r.err != "") != want[i].fault {
			t.Errorf("scenario %d (%s): output %q, err %q", i, p.main, r.output, r.err)
		}
	}
}
