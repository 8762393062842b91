package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// run assembles src, maps it at 0x10000 (code RX, data RW), gives it a
// stack, and returns a ready CPU plus the linked image.
func load(t *testing.T, src string, cfg Config) (*CPU, *isa.Image) {
	t.Helper()
	m := mem.New(4 << 20)
	img := loadImage(t, m, src)
	c := New(m, cfg)
	c.PC = img.Entry
	c.Regs[isa.RegSP] = m.Size() - mem.PageSize
	return c, img
}

// loadImage assembles src into m: code read-execute, data read-write,
// and a 64 KiB stack below a guard page at the top of m.
func loadImage(t *testing.T, m *mem.Memory, src string) *isa.Image {
	t.Helper()
	mod, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.MapInto(m); err != nil {
		t.Fatal(err)
	}
	// Stack: last 64 KiB below a guard page.
	top := m.Size() - mem.PageSize
	if err := m.Protect(top-(64<<10), 64<<10, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	return img
}

func mustRun(t *testing.T, c *CPU, budget uint64) {
	t.Helper()
	if err := c.Run(budget); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
}

func TestArithmeticLoop(t *testing.T) {
	c, _ := load(t, `
		movi r1, 10
		movi r2, 0
	loop:
		add r2, r2, r1
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`, DefaultConfig())
	mustRun(t, c, 100000)
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
}

func TestCallRetAndStack(t *testing.T) {
	c, _ := load(t, `
	.entry main
	double:
		add r1, r1, r1
		ret
	main:
		movi r1, 21
		call double
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[1] != 42 {
		t.Errorf("r1 = %d, want 42", c.Regs[1])
	}
	if c.BP.Stats.Returns != 1 || c.BP.Stats.ReturnMispred != 0 {
		t.Errorf("matched call/ret mispredicted: %+v", c.BP.Stats)
	}
}

func TestLoadStoreMemory(t *testing.T) {
	c, img := load(t, `
		movi r1, arr
		movi r2, 1234
		store [r1+16], r2
		load r3, [r1+16]
		loadb r4, [r1+16]
		halt
	.data
	arr: .space 64
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[3] != 1234 {
		t.Errorf("load = %d", c.Regs[3])
	}
	if c.Regs[4] != 1234&0xff {
		t.Errorf("loadb = %d", c.Regs[4])
	}
	v, err := c.Mem.Read64(img.MustSymbol("arr") + 16)
	if err != nil || v != 1234 {
		t.Errorf("memory value = %d, %v", v, err)
	}
}

func TestSignedAndUnsignedBranches(t *testing.T) {
	c, _ := load(t, `
		movi r1, -1
		movi r2, 1
		cmp r1, r2
		jl signed_less
		movi r10, 0
		jmp next
	signed_less:
		movi r10, 1
	next:
		cmp r1, r2     ; unsigned: 0xffff... > 1
		ja unsigned_above
		movi r11, 0
		jmp done
	unsigned_above:
		movi r11, 1
	done:
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[10] != 1 {
		t.Error("JL failed on signed -1 < 1")
	}
	if c.Regs[11] != 1 {
		t.Error("JA failed on unsigned max > 1")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c, _ := load(t, `
		movi r1, 4
		movi r2, 0
		div r3, r1, r2
		halt
	`, DefaultConfig())
	err := c.Run(100)
	if err == nil {
		t.Fatal("division by zero did not fault")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %T is not *Fault", err)
	}
}

func TestDEPBlocksStackExecution(t *testing.T) {
	// Jump into the (writable, non-executable) data section: must fault
	// with an exec-protect error.
	c, _ := load(t, `
		movi r1, payload
		jmpr r1
		halt
	.data
	payload: .space 32
	`, DefaultConfig())
	err := c.Run(100)
	var mf *mem.Fault
	if !errors.As(err, &mf) || mf.Kind != mem.FaultExec {
		t.Fatalf("expected DEP exec fault, got %v", err)
	}
}

func TestLoadLatencyStallsConsumer(t *testing.T) {
	// A dependent ALU op must wait for a cold load; an independent op
	// must not.
	cfg := DefaultConfig()
	cDep, _ := load(t, `
		movi r1, arr
		load r2, [r1]
		addi r3, r2, 1   ; depends on the load
		halt
	.data
	arr: .word 5
	`, cfg)
	mustRun(t, cDep, 100)

	cInd, _ := load(t, `
		movi r1, arr
		load r2, [r1]
		addi r3, r1, 1   ; independent of the load
		halt
	.data
	arr: .word 5
	`, cfg)
	mustRun(t, cInd, 100)

	if cDep.Cycle <= cInd.Cycle {
		t.Errorf("dependent chain (%d cycles) not slower than independent (%d)", cDep.Cycle, cInd.Cycle)
	}
	if cDep.Snapshot().StallCycles == 0 {
		t.Error("dependent load consumer recorded no stalls")
	}
}

func TestRDTSCTimesCacheMiss(t *testing.T) {
	// The flush+reload receiver's core loop: rdtsc / load / lfence /
	// rdtsc must show a large delta for cold lines and a small one warm.
	src := `
		movi r1, arr
		rdtsc r10
		loadb r2, [r1]
		lfence
		rdtsc r11
		sub r12, r11, r10   ; cold duration
		rdtsc r10
		loadb r2, [r1]
		lfence
		rdtsc r11
		sub r13, r11, r10   ; warm duration
		halt
	.data
	.align 64
	arr: .space 64
	`
	c, _ := load(t, src, DefaultConfig())
	mustRun(t, c, 1000)
	cold, warm := c.Regs[12], c.Regs[13]
	if cold < warm+100 {
		t.Errorf("timing margin too small: cold=%d warm=%d", cold, warm)
	}
}

func TestClflushMakesReloadSlow(t *testing.T) {
	c, _ := load(t, `
		movi r1, arr
		loadb r2, [r1]      ; warm the line
		loadb r2, [r1]
		clflush [r1]
		rdtsc r10
		loadb r2, [r1]
		lfence
		rdtsc r11
		sub r12, r11, r10
		halt
	.data
	.align 64
	arr: .space 64
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[12] < 100 {
		t.Errorf("reload after clflush took only %d cycles", c.Regs[12])
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	// A branch with a stable direction becomes cheap; flipping its
	// direction once charges the penalty.
	cfg := DefaultConfig()
	c, _ := load(t, `
		movi r1, 0
		movi r2, 100
	loop:
		addi r1, r1, 1
		cmp r1, r2
		jb loop
		halt
	`, cfg)
	mustRun(t, c, 100000)
	s := c.BP.Stats
	if s.CondBranches != 100 {
		t.Fatalf("cond branches = %d", s.CondBranches)
	}
	// Warmup mispredicts (~2) plus the final not-taken flip.
	if s.CondMispred == 0 || s.CondMispred > 5 {
		t.Errorf("mispredicts = %d, want a small nonzero count", s.CondMispred)
	}
}

// TestSpeculativeLeak is the reproduction's keystone: a bounds check
// whose comparison operand was flushed resolves late; a mistrained
// predictor sends execution down the in-bounds path with an
// out-of-bounds index; the dependent probe-array load fills a cache line
// that SURVIVES the squash and is observable by timing. Without this
// property CR-Spectre cannot exist.
func TestSpeculativeLeak(t *testing.T) {
	src := `
	.entry main
	; victim(r1 = x): if x < size { y = arr1[x]; probe[y*512]; }
	victim:
		movi r3, size_var
		load r4, [r3]        ; size (flushable -> late-resolving compare)
		cmp r1, r4
		jae out
		movi r5, arr1
		add r5, r5, r1
		loadb r6, [r5]       ; y = arr1[x]  (out of bounds when speculated)
		shli r6, r6, 9       ; y * 512
		movi r7, probe
		add r7, r7, r6
		loadb r8, [r7]       ; fills probe[y*512] line
	out:
		ret
	main:
		; train: x=0 several times
		movi r9, 6
	train:
		movi r1, 0
		call victim
		subi r9, r9, 1
		cmpi r9, 0
		jne train
		; flush size, then call with malicious x = (secret - arr1)
		movi r3, size_var
		clflush [r3]
		mfence
		movi r1, secret
		movi r2, arr1
		sub r1, r1, r2
		call victim
		halt
	.data
	.align 64
	size_var: .word 4
	.align 64
	arr1: .byte 1, 2, 3, 4
	.align 64
	secret: .byte 0x2A          ; the byte to leak (42)
	.align 64
	probe: .space 131072        ; 256 * 512
	`
	c, img := load(t, src, DefaultConfig())
	mustRun(t, c, 100000)

	probe := img.MustSymbol("probe")
	// The line for secret value 42 must be cached; neighbours must not.
	if !c.Caches.Cached(probe + 42*512) {
		t.Fatal("probe line for the secret byte was not filled speculatively")
	}
	for _, v := range []uint64{41, 43, 7, 200} {
		if c.Caches.Cached(probe + v*512) {
			t.Errorf("probe line %d cached; leak is not selective", v)
		}
	}
	if c.Snapshot().Squashes == 0 {
		t.Error("no speculation episode was squashed")
	}
	// Architectural state never saw the out-of-bounds read: r8 keeps its
	// last in-bounds value (probe bytes are zero).
	if c.Regs[8] != 0 {
		t.Errorf("architectural r8 = %d; speculative value leaked architecturally", c.Regs[8])
	}
}

// TestSpeculationDisabledBlocksLeak runs the same victim with
// speculation off: the probe line must stay cold (the blunt mitigation
// works).
func TestSpeculationDisabledBlocksLeak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeculationEnabled = false
	c, img := loadLeakVictim(t, cfg, "")
	mustRun(t, c, 100000)
	if c.Caches.Cached(img.MustSymbol("probe") + 42*512) {
		t.Error("leak succeeded with speculation disabled")
	}
}

// TestLfenceBlocksLeak inserts the context-sensitive-fencing defense
// (paper ref [19]): an LFENCE after the bounds check stops the episode
// before the secret-dependent load.
func TestLfenceBlocksLeak(t *testing.T) {
	c, img := loadLeakVictim(t, DefaultConfig(), "lfence")
	mustRun(t, c, 100000)
	if c.Caches.Cached(img.MustSymbol("probe") + 42*512) {
		t.Error("leak succeeded through an lfence")
	}
}

// TestSquashCacheEffectsBlocksObservation models InvisiSpec (paper ref
// [18]): wrong-path fills are rolled back at squash.
func TestSquashCacheEffectsBlocksObservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashCacheEffects = true
	c, img := loadLeakVictim(t, cfg, "")
	mustRun(t, c, 100000)
	if c.Caches.Cached(img.MustSymbol("probe") + 42*512) {
		t.Error("leak observable despite InvisiSpec-style rollback")
	}
}

// loadLeakVictim builds the Spectre-v1 victim with an optional extra
// instruction after the bounds check (defense injection point).
func loadLeakVictim(t *testing.T, cfg Config, afterCheck string) (*CPU, *isa.Image) {
	t.Helper()
	src := `
	.entry main
	victim:
		movi r3, size_var
		load r4, [r3]
		cmp r1, r4
		jae out
		` + afterCheck + `
		movi r5, arr1
		add r5, r5, r1
		loadb r6, [r5]
		shli r6, r6, 9
		movi r7, probe
		add r7, r7, r6
		loadb r8, [r7]
	out:
		ret
	main:
		movi r9, 6
	train:
		movi r1, 0
		call victim
		subi r9, r9, 1
		cmpi r9, 0
		jne train
		movi r3, size_var
		clflush [r3]
		mfence
		movi r1, secret
		movi r2, arr1
		sub r1, r1, r2
		call victim
		halt
	.data
	.align 64
	size_var: .word 4
	.align 64
	arr1: .byte 1, 2, 3, 4
	.align 64
	secret: .byte 0x2A
	.align 64
	probe: .space 131072
	`
	return load(t, src, cfg)
}

func TestRSBMispredictionOnROPStyleReturn(t *testing.T) {
	// Overwrite the return address on the stack: the RSB predicts the
	// original call site, so the RET mispredicts — the micro-
	// architectural signature of a ROP pivot.
	c, _ := load(t, `
	.entry main
	gadget:
		movi r10, 99
		halt
	f:
		movi r1, gadget
		store [sp], r1       ; smash own return address
		ret
	main:
		call f
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[10] != 99 {
		t.Fatal("control flow was not hijacked")
	}
	if c.BP.Stats.ReturnMispred == 0 {
		t.Error("ROP-style return did not mispredict the RSB")
	}
}

func TestSyscallDispatch(t *testing.T) {
	c, _ := load(t, `
		movi r0, 7
		movi r1, 11
		syscall
		halt
	`, DefaultConfig())
	var gotNum, gotArg uint64
	c.OnSyscall = func(c *CPU) error {
		gotNum, gotArg = c.Regs[0], c.Regs[1]
		return nil
	}
	mustRun(t, c, 100)
	if gotNum != 7 || gotArg != 11 {
		t.Errorf("syscall saw %d,%d", gotNum, gotArg)
	}
	if c.Snapshot().Syscalls != 1 {
		t.Error("syscall counter wrong")
	}
}

func TestSyscallWithoutHandlerFaults(t *testing.T) {
	c, _ := load(t, "syscall\nhalt", DefaultConfig())
	if err := c.Run(10); err == nil {
		t.Error("SYSCALL without handler did not fault")
	}
}

func TestPrivilegedFlushCountermeasure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrivilegedFlush = true
	c, _ := load(t, `
		movi r1, x
		clflush [r1]
		halt
	.data
	x: .word 0
	`, cfg)
	if err := c.Run(100); err == nil {
		t.Error("clflush executed despite PrivilegedFlush")
	}
}

func TestHaltedStep(t *testing.T) {
	c, _ := load(t, "halt", DefaultConfig())
	mustRun(t, c, 10)
	if err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("step after halt: %v", err)
	}
}

func TestRunBudget(t *testing.T) {
	c, _ := load(t, "loop: jmp loop", DefaultConfig())
	if err := c.Run(100); !errors.Is(err, ErrBudget) {
		t.Errorf("infinite loop: %v", err)
	}
}

func TestIPCAndInstret(t *testing.T) {
	c, _ := load(t, "nop\nnop\nnop\nhalt", DefaultConfig())
	mustRun(t, c, 100)
	if c.Instret() != 4 {
		t.Errorf("instret = %d", c.Instret())
	}
	if ipc := c.IPC(); ipc <= 0 || ipc > 1.5 {
		t.Errorf("IPC = %f out of plausible range", ipc)
	}
}

func TestSnapshotSub(t *testing.T) {
	c, _ := load(t, `
		movi r1, arr
		load r2, [r1]
		load r2, [r1]
		halt
	.data
	arr: .word 1
	`, DefaultConfig())
	before := c.Snapshot()
	mustRun(t, c, 100)
	d := c.Snapshot().Sub(before)
	if d.Instructions != 4 {
		t.Errorf("delta instructions = %d", d.Instructions)
	}
	if d.Loads != 2 || d.L1Accesses != 2 || d.L1Misses != 1 {
		t.Errorf("delta loads=%d l1acc=%d l1miss=%d", d.Loads, d.L1Accesses, d.L1Misses)
	}
}

// TestSnapshotSubEveryField holds Sub to every counter: each field of
// the difference is that field's own difference, and no two fields'
// differences are equal, so a field Sub skips or crosses over shows.
func TestSnapshotSubEveryField(t *testing.T) {
	var s, prev Snapshot
	vs, vp := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&prev).Elem()
	for i := range vs.NumField() {
		vs.Field(i).SetUint(uint64(1000 + 7*i))
		vp.Field(i).SetUint(uint64(i))
	}
	d := reflect.ValueOf(s.Sub(prev))
	for i := range d.NumField() {
		if got, want := d.Field(i).Uint(), uint64(1000+6*i); got != want {
			t.Errorf("Sub().%s = %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
}

func TestIndirectBranchBTBTraining(t *testing.T) {
	c, _ := load(t, `
	.entry main
	target:
		addi r10, r10, 1
		ret
	main:
		movi r1, target
		movi r2, 3
	loop:
		callr r1
		subi r2, r2, 1
		cmpi r2, 0
		jne loop
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	s := c.BP.Stats
	if s.Indirect != 3 {
		t.Fatalf("indirect count = %d", s.Indirect)
	}
	if s.IndirectMiss != 1 {
		t.Errorf("indirect misses = %d, want 1 (cold only)", s.IndirectMiss)
	}
	if c.Regs[10] != 3 {
		t.Errorf("callr executed %d times", c.Regs[10])
	}
}

func TestRSBUnderflowNoSpeculation(t *testing.T) {
	// Returns deeper than the 16-entry RSB overflow it: the oldest
	// entries are gone when the outer frames unwind, so those returns
	// mispredict — but must not crash or speculate to garbage.
	// Build 20-deep nesting: f0 calls f1 ... f19, then returns unwind.
	src := ".entry main\nmain:\n\tcall f0\n\thalt\n"
	for i := 0; i < 20; i++ {
		src += fmt.Sprintf("f%d:\n", i)
		if i < 19 {
			src += fmt.Sprintf("\tcall f%d\n", i+1)
		}
		src += "\tret\n"
	}
	c, _ := load(t, src, DefaultConfig())
	mustRun(t, c, 10_000)
	s := c.BP.Stats
	if s.Returns != 20 {
		t.Fatalf("returns = %d", s.Returns)
	}
	// The four deepest frames overflowed the 16-entry RSB: their
	// returns mispredict.
	if s.ReturnMispred < 4 {
		t.Errorf("RSB overflow produced only %d mispredictions", s.ReturnMispred)
	}
}

func TestResolvedMispredictChargesPenaltyOnly(t *testing.T) {
	// A branch whose flags are long since ready still mispredicts on a
	// direction flip, but runs no episode (nothing unresolved).
	c, _ := load(t, `
		movi r1, 0
		movi r2, 64
	loop:
		addi r1, r1, 1
		nop
		nop
		cmp r1, r2
		jb loop
		halt
	`, DefaultConfig())
	mustRun(t, c, 10_000)
	if c.Snapshot().Squashes != 0 {
		t.Errorf("register-only compares ran %d episodes", c.Snapshot().Squashes)
	}
	if c.BP.Stats.CondMispred == 0 {
		t.Error("direction flip never mispredicted")
	}
}

func TestIndirectResolvedMiss(t *testing.T) {
	// An indirect jump through a register that is ready (no in-flight
	// load) with a cold/wrong BTB: miss counted, no episode.
	c, _ := load(t, `
	.entry main
	a:	addi r10, r10, 1
		ret
	b:	addi r11, r11, 1
		ret
	main:
		movi r1, a
		callr r1
		movi r1, b
		callr r1        ; same site? no - distinct sites, both cold
		halt
	`, DefaultConfig())
	mustRun(t, c, 1_000)
	s := c.Snapshot()
	if s.IndirectMiss != 2 {
		t.Errorf("cold indirect misses = %d, want 2", s.IndirectMiss)
	}
	if s.Squashes != 0 {
		t.Errorf("resolved indirect ran %d episodes", s.Squashes)
	}
	if c.Regs[10] != 1 || c.Regs[11] != 1 {
		t.Error("indirect calls did not execute")
	}
}

// TestNewColdCost is the cold-core construction gate: short-lived cores
// (difftest programs, gadget confirmation runs) retire a few hundred
// instructions each, so building one must stay cheap. New over a 1 MiB
// memory allocates a bounded handful of objects and bytes, and the CPU
// struct itself, which the GC scans, stays small: predecode tables and
// cache lines live behind pointers, allocated in one piece or on first
// use.
func TestNewColdCost(t *testing.T) {
	if size := unsafe.Sizeof(CPU{}); size >= 16<<10 {
		t.Errorf("CPU is %d bytes, want under 16 KiB", size)
	}
	m := mem.New(1 << 20)
	cfg := DefaultConfig()
	var c *CPU
	if allocs := testing.AllocsPerRun(20, func() { c = New(m, cfg) }); allocs > 32 {
		t.Errorf("New allocates %.0f objects, want at most 32", allocs)
	}
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c = New(m, cfg)
	}
	runtime.ReadMemStats(&after)
	if perNew := (after.TotalAlloc - before.TotalAlloc) / runs; perNew >= 128<<10 {
		t.Errorf("New allocates %d bytes, want under 128 KiB", perNew)
	}
	if c.Mem != m {
		t.Fatal("core not built over the given memory")
	}
}

// BenchmarkNew measures building a cold core, the fixed cost every
// short-lived simulation pays before its first instruction, over a
// progen-sized (1 MiB) and a vm-sized (16 MiB) memory.
func BenchmarkNew(b *testing.B) {
	for _, size := range []uint64{1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			m := mem.New(size)
			cfg := DefaultConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCPU = New(m, cfg)
			}
		})
	}
}

// benchCPU keeps BenchmarkNew's result live.
var benchCPU *CPU

// TestResetMatchesNew checks Reset against New structure by structure,
// and is the reuse gate. After a run that trains every predictor
// (conditional, indirect and return), fills the caches, leaves stores
// pending and keeps telemetry attached, a reset core equals one New
// builds — tables rebuilt or cleared, counters and clocks zero, hooks
// detached — apart from the allocations Reset keeps, which must be
// empty. Unless the posture selects a predictor family or BTB geometry
// the core has not run, Reset allocates nothing, and a reset back to the
// posture the core ran first never does.
func TestResetMatchesNew(t *testing.T) {
	gshare, smallBTB, noBlocks, noisy := DefaultConfig(), DefaultConfig(), DefaultConfig(), DefaultConfig()
	gshare.Predictor = "gshare"
	smallBTB.BTBEntries, smallBTB.BTBTagBits = 16, 1
	noBlocks.NoBlocks = true
	noisy.NoisePeriod, noisy.NoiseSeed, noisy.NextLinePrefetch = 50, 3, true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name    string
		before  Config
		after   Config
		rebuild bool // new predictor tables expected
	}{
		{"pht", DefaultConfig(), DefaultConfig(), false},
		{"gshare", gshare, gshare, false},
		{"btb", smallBTB, smallBTB, false},
		{"noblocks", DefaultConfig(), noBlocks, false},
		{"noise", noisy, DefaultConfig(), false},
		{"rebuild", DefaultConfig(), gshare, true},
	} {
		c, _ := load(t, `
			movi r1, arr
			movi r6, fn
		loop:
			clflush [r1+8]
			load r3, [r1+8]
			store [r1+16], r3   ; r3 in flight: a pending store
			cmpi r3, 0
			jl skip             ; unresolved: a speculation episode
			addi r5, r5, 1
		skip:
			andi r7, r5, 1
			cmpi r7, 0
			jne odd             ; taken every other pass: PHT and history
			addi r8, r8, 1
		odd:
			load r9, [r1+8]
			muli r9, r9, 25214903917
			addi r9, r9, 11     ; step the LCG the jl above branches on
			store [r1+8], r9
			callr r6            ; trains the BTB and the RSB
			jmp loop
		fn:
			ret
		.data
		arr: .space 64
		`, tc.before)
		c.AttachTelemetry(telemetry.NewRecorder(64))
		c.SetProbeWindow(0x1000, 0x2000)
		if err := c.Run(4_999); err != ErrBudget {
			t.Fatalf("%s: run before reset: %v", tc.name, err)
		}
		if s := c.Snapshot(); s.Indirect == 0 || s.Returns == 0 || s.CondMispred == 0 || s.Squashes == 0 {
			t.Fatalf("%s: workload did not exercise every predictor and speculation: %+v", tc.name, s)
		}
		m := c.Mem
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Reset(m, tc.after)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; !tc.rebuild && n != 0 {
			t.Errorf("%s: Reset allocated %d objects, want 0", tc.name, n)
		}
		fresh := New(m, tc.after)

		for pg, tab := range c.icache {
			if tab != nil {
				t.Errorf("%s: predecode table of page %d stayed attached", tc.name, pg)
			}
		}
		if c.icacheUsed != 0 {
			t.Errorf("%s: %d predecode tables still counted attached", tc.name, c.icacheUsed)
		}
		for i, tab := range c.icachePages {
			if *tab != (icachePage{}) {
				t.Errorf("%s: free predecode table %d kept entries", tc.name, i)
			}
		}
		if len(c.pendingStores) != 0 || len(c.specScratch.store) != 0 || len(c.specScratch.filled) != 0 {
			t.Errorf("%s: store buffer or episode scratch kept entries", tc.name)
		}
		if !reflect.DeepEqual(c.BP, fresh.BP) {
			t.Errorf("%s: branch unit differs from a new one", tc.name)
		}
		if !reflect.DeepEqual(c.Caches, fresh.Caches) {
			t.Errorf("%s: cache hierarchy differs from a new one", tc.name)
		}
		got, want := *c, *fresh
		got.icache, want.icache = nil, nil
		got.icachePages, want.icachePages = nil, nil
		got.pendingStores, want.pendingStores = nil, nil
		got.specScratch, want.specScratch = specState{}, specState{}
		got.units, want.units = nil, nil
		got.spare, want.spare = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset core differs from a new one", tc.name)
		}

		runtime.ReadMemStats(&before)
		c.Reset(m, tc.before)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: Reset back to the first posture allocated %d objects, want 0", tc.name, n)
		}
	}
}

// BenchmarkReset measures returning a core to its just-built state in
// place, the fixed cost a reused machine pays per run instead of New's,
// over the same memory sizes as BenchmarkNew.
func BenchmarkReset(b *testing.B) {
	for _, size := range []uint64{1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			m := mem.New(size)
			cfg := DefaultConfig()
			c := New(m, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset(m, cfg)
			}
		})
	}
}
