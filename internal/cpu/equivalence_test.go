package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// TestArchitecturalEquivalence is the core soundness property of the
// speculative model: wrong-path execution may only change *timing* and
// cache state — never architectural results. Every micro-architectural
// configuration must compute identical register files on the same
// program.
func TestArchitecturalEquivalence(t *testing.T) {
	program := `
	.entry main
	; a branchy, memory-heavy kernel exercising loads, stores, calls,
	; flushes and data-dependent control flow
	mix:
		push bp
		movi r3, 0
		movi r4, 0x9E3779B97F4A7C15
		movi r10, tbl
	mx_loop:
		movi r6, 6364136223846793005
		mul r4, r4, r6
		addi r4, r4, 1442695040888963407
		mov r6, r4
		shri r6, r6, 32
		andi r6, r6, 255
		mov r7, r6
		shli r7, r7, 3
		add r7, r7, r10
		load r8, [r7]
		add r8, r8, r4
		store [r7], r8
		mov r9, r4
		andi r9, r9, 7
		cmpi r9, 3
		jb mx_flush
		jmp mx_next
	mx_flush:
		clflush [r7]
		mfence
	mx_next:
		addi r3, r3, 1
		cmpi r3, 400
		jb mx_loop
		; checksum
		movi r3, 0
		movi r5, 0
	mx_sum:
		mov r7, r3
		shli r7, r7, 3
		add r7, r7, r10
		load r8, [r7]
		add r5, r5, r8
		addi r3, r3, 1
		cmpi r3, 256
		jb mx_sum
		mov r0, r5
		pop bp
		ret
	main:
		call mix
		halt
	.data
	.align 64
	tbl: .space 2048
	`
	configs := map[string]Config{
		"baseline":   DefaultConfig(),
		"no_spec":    func() Config { c := DefaultConfig(); c.SpeculationEnabled = false; return c }(),
		"invisispec": func() Config { c := DefaultConfig(); c.SquashCacheEffects = true; return c }(),
		"tiny_win":   func() Config { c := DefaultConfig(); c.SpecWindow = 2; return c }(),
		"gshare":     func() Config { c := DefaultConfig(); c.Predictor = "gshare"; return c }(),
		"noisy":      func() Config { c := DefaultConfig(); c.NoisePeriod = 100; c.NoiseSeed = 5; return c }(),
	}
	var reference *CPU
	var refName string
	for name, cfg := range configs {
		c, _ := load(t, program, cfg)
		mustRun(t, c, 100_000)
		if reference == nil {
			reference, refName = c, name
			continue
		}
		if c.Regs != reference.Regs {
			t.Errorf("%s and %s disagree architecturally:\n%v\nvs\n%v", name, refName, c.Regs, reference.Regs)
		}
	}
	if reference.Regs[0] == 0 {
		t.Error("checksum register is zero; kernel did no work")
	}
}

// TestTimingDiffersAcrossConfigs: the configurations above must NOT all
// take the same number of cycles (otherwise the knobs are inert).
func TestTimingDiffersAcrossConfigs(t *testing.T) {
	program := `
		movi r1, mem
		movi r2, 200
	loop:
		load r3, [r1]
		clflush [r1]
		cmp r3, r2
		jae skip
		addi r4, r4, 1
	skip:
		subi r2, r2, 1
		cmpi r2, 0
		jne loop
		halt
	.data
	.align 64
	mem: .word 5
	`
	base, _ := load(t, program, DefaultConfig())
	mustRun(t, base, 100_000)
	noSpec := DefaultConfig()
	noSpec.SpeculationEnabled = false
	off, _ := load(t, program, noSpec)
	mustRun(t, off, 100_000)
	if base.Cycle == off.Cycle {
		t.Error("speculation toggle did not change timing at all")
	}
}

// TestQuickALUSemantics cross-checks the simulated ALU against Go's own
// 64-bit arithmetic on random operands, for every register form and,
// through the op table's base op, every immediate form. It also pins
// each form's cycle cost and divide-by-zero fault in the op table.
func TestQuickALUSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	add := func(a, b uint64) uint64 { return a + b }
	sub := func(a, b uint64) uint64 { return a - b }
	mul := func(a, b uint64) uint64 { return a * b }
	div := func(a, b uint64) uint64 { return a / b }
	mod := func(a, b uint64) uint64 { return a % b }
	and := func(a, b uint64) uint64 { return a & b }
	or := func(a, b uint64) uint64 { return a | b }
	xor := func(a, b uint64) uint64 { return a ^ b }
	shl := func(a, b uint64) uint64 { return a << (b & 63) }
	shr := func(a, b uint64) uint64 { return a >> (b & 63) }
	ops := []struct {
		op   isa.Op
		cost uint8
		f    func(a, b uint64) uint64
	}{
		{isa.ADD, 1, add}, {isa.SUB, 1, sub}, {isa.MUL, 3, mul},
		{isa.DIV, 20, div}, {isa.MOD, 20, mod}, {isa.AND, 1, and},
		{isa.OR, 1, or}, {isa.XOR, 1, xor}, {isa.SHL, 1, shl}, {isa.SHR, 1, shr},
		{isa.SAR, 1, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},

		{isa.ADDI, 1, add}, {isa.SUBI, 1, sub}, {isa.MULI, 3, mul},
		{isa.DIVI, 20, div}, {isa.MODI, 20, mod}, {isa.ANDI, 1, and},
		{isa.ORI, 1, or}, {isa.XORI, 1, xor}, {isa.SHLI, 1, shl}, {isa.SHRI, 1, shr},
	}
	for _, o := range ops {
		e := opTab[o.op]
		if e.class != clsALU && e.class != clsALUImm || opTab[e.base].class != clsALU {
			t.Errorf("%s: op-table base %s is not a register-form ALU op", o.op, e.base)
		}
		if e.cost != o.cost {
			t.Errorf("%s costs %d cycles, want %d", o.op, e.cost, o.cost)
		}
		if wantDiv := e.base == isa.DIV || e.base == isa.MOD; e.divides != wantDiv {
			t.Errorf("%s: divides = %v, want %v", o.op, e.divides, wantDiv)
		}
	}
	f := func() bool {
		a, b := rng.Uint64(), rng.Uint64()
		if b == 0 {
			b = 1
		}
		o := ops[rng.Intn(len(ops))]
		return alu(opTab[o.op].base, a, b) == o.f(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestSpecStoreForwarding: within a wrong-path episode, a speculative
// load must observe an earlier speculative store (store-buffer
// forwarding), or the spec-store-overflow variant could not redirect its
// own return.
func TestSpecStoreForwarding(t *testing.T) {
	// victim(x=r1, v=r2): if (x < size) { slot = v; y = slot;
	// probe[y*512]; }. Training uses v=7 (its probe line is flushed
	// afterwards); the malicious call uses v=42 out of bounds, so only
	// speculative store->load forwarding can warm probe[42*512], while
	// the architectural slot keeps the trained 7.
	c, img := load(t, `
	.entry main
	victim:
		movi r3, size_var
		load r4, [r3]
		cmp r1, r4
		jae out
		movi r5, slot
		store [r5], r2
		load r7, [r5]        ; must forward the in-flight value
		shli r7, r7, 9
		movi r8, probe
		add r8, r8, r7
		loadb r6, [r8]
	out:
		ret
	main:
		movi r9, 6
	train:
		movi r1, 0
		movi r2, 7
		call victim
		subi r9, r9, 1
		cmpi r9, 0
		jne train
		movi r3, probe+3584  ; evict training's probe[7*512]
		clflush [r3]
		movi r3, size_var
		clflush [r3]
		mfence
		movi r1, 99          ; out of bounds
		movi r2, 42
		call victim
		lfence
		halt
	.data
	.align 64
	size_var: .word 4
	.align 64
	slot: .word 0
	.align 64
	probe: .space 131072
	`, DefaultConfig())
	mustRun(t, c, 100_000)
	probe := img.MustSymbol("probe")
	if !c.Caches.Cached(probe + 42*512) {
		t.Error("speculative store was not forwarded to the speculative load")
	}
	if c.Caches.Cached(probe + 7*512) {
		t.Error("training residue survived the flush; test premise broken")
	}
	// The architectural slot keeps the trained value.
	if v, _ := c.Mem.Read64(img.MustSymbol("slot")); v != 7 {
		t.Errorf("architectural slot = %d, speculative store leaked", v)
	}
}

// TestSpecWindowCapsEpisode: a window of N instructions must execute at
// most N speculative instructions per episode.
func TestSpecWindowCapsEpisode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpecWindow = 4
	c, _ := loadLeakVictim(t, cfg, "")
	mustRun(t, c, 100_000)
	s := c.Snapshot()
	if s.Squashes == 0 {
		t.Fatal("no episodes ran")
	}
	if s.SpecInstructions > s.Squashes*4 {
		t.Errorf("%d spec instructions over %d episodes exceeds window 4", s.SpecInstructions, s.Squashes)
	}
}

// TestMfenceDrainsPendingLoads: a timed region closed by MFENCE must
// include the full miss latency.
func TestMfenceDrainsPendingLoads(t *testing.T) {
	c, _ := load(t, `
		movi r1, x
		clflush [r1]
		rdtsc r10
		load r2, [r1]
		mfence
		rdtsc r11
		sub r12, r11, r10
		halt
	.data
	.align 64
	x: .word 1
	`, DefaultConfig())
	mustRun(t, c, 1_000)
	if c.Regs[12] < 200 {
		t.Errorf("mfence did not wait for the miss: %d cycles", c.Regs[12])
	}
}

// TestGsharePredictorRuns: the alternative predictor executes programs
// correctly and records branch statistics.
func TestGsharePredictorRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = "gshare"
	c, _ := load(t, `
		movi r1, 100
	loop:
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`, cfg)
	mustRun(t, c, 10_000)
	if c.BP.Stats.CondBranches != 100 {
		t.Errorf("gshare counted %d branches", c.BP.Stats.CondBranches)
	}
}
