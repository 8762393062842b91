package cpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestBlockTierEngages: the default core must actually run the
// arithmetic loop through the block cache — compiled blocks, cache hits,
// the loop body compiled with its CMPI and JNE exit — and still retire
// the same answer.
func TestBlockTierEngages(t *testing.T) {
	src := `
		movi r1, 1000
		movi r2, 0
	loop:
		add r2, r2, r1
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`
	c, _ := load(t, src, DefaultConfig())
	mustRun(t, c, 100000)
	if c.Regs[2] != 500500 {
		t.Errorf("sum = %d, want 500500", c.Regs[2])
	}
	st := c.BlockStats()
	if st.Compiled == 0 || st.Hits == 0 {
		t.Fatalf("block tier did not engage: %+v", st)
	}
	var loopExit bool
	for _, b := range c.Blocks() {
		if b.Exit == "jne" {
			loopExit = true
			if b.Instrs < 2 {
				t.Errorf("jne block retires %d instructions, want >= 2", b.Instrs)
			}
		}
	}
	if !loopExit {
		t.Errorf("no block exits through the loop's jne: %+v", c.Blocks())
	}

	// Step() must stay on the single-step interpreter: a freshly loaded
	// twin stepped to completion sees no block activity.
	c2, _ := load(t, src, DefaultConfig())
	for i := 0; i < 100 && !c2.Halted(); i++ {
		if err := c2.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := c2.BlockStats(); st2 != (BlockStats{}) {
		t.Errorf("Step() engaged the block tier: %+v", st2)
	}
}

// TestBlockSelfModifyingOwnPage: a store inside a block overwrites the
// immediate of a *later instruction of the same block*. The single-step
// interpreter naturally executes the new bytes (its predecode slots are
// generation-checked per instruction); the block tier must detect that
// the store dirtied its own page mid-block and fall back rather than
// retire the stale cached decode.
func TestBlockSelfModifyingOwnPage(t *testing.T) {
	src := `
	.entry main
	main:
		movi r1, patchme
		movi r2, 99
		store [r1+4], r2   ; rewrite the imm field of "movi r3, 1"
	patchme:
		movi r3, 1
		halt
	`
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"blocks", DefaultConfig()},
		{"noblocks", func() Config { c := DefaultConfig(); c.NoBlocks = true; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := loadRWX(t, src, tc.cfg)
			mustRun(t, c, 1000)
			if c.Regs[3] != 99 {
				t.Fatalf("r3 = %d, want 99 (stale cached decode executed)", c.Regs[3])
			}
		})
	}
}

// TestBlockSelfModifyingLoop: the harder variant — a loop that patches
// its own body every iteration, so the block covering it is invalidated
// and recompiled over and over. Both tiers must agree on the final
// state, and the block core must report invalidations.
func TestBlockSelfModifyingLoop(t *testing.T) {
	src := `
	.entry main
	main:
		movi r1, slot
		movi r4, 0
		movi r5, 10
	loop:
		load r2, [r1+4]
		addi r2, r2, 1
		store [r1+4], r2   ; bump the imm the next iteration will execute
	slot:
		movi r3, 0
		add r4, r4, r3
		subi r5, r5, 1
		cmpi r5, 0
		jne loop
		halt
	`
	run := func(noBlocks bool) *CPU {
		cfg := DefaultConfig()
		cfg.NoBlocks = noBlocks
		c, _ := loadRWX(t, src, cfg)
		mustRun(t, c, 10000)
		return c
	}
	cb, cs := run(false), run(true)
	if cb.Regs[4] != cs.Regs[4] || cb.Regs[3] != cs.Regs[3] {
		t.Fatalf("tiers disagree: blocks r3=%d r4=%d, single-step r3=%d r4=%d",
			cb.Regs[3], cb.Regs[4], cs.Regs[3], cs.Regs[4])
	}
	if cb.Cycle != cs.Cycle || cb.Snapshot() != cs.Snapshot() {
		t.Fatalf("tiers disagree on the machine: blocks %+v, single-step %+v",
			cb.Snapshot(), cs.Snapshot())
	}
	if st := cb.BlockStats(); st.Invalidations == 0 {
		t.Errorf("self-patching loop caused no block invalidations: %+v", st)
	}
}

// TestBlockProtectFlip: a Protect change (here via a syscall handler,
// the only reach a guest has) bumps the page generations; a block whose
// permissions merely widened revalidates byte-for-byte and keeps
// running, while a page made non-executable must fault exactly like the
// single-step interpreter.
func TestBlockProtectFlip(t *testing.T) {
	src := `
	.entry main
	main:
		movi r1, 5
		syscall
	after:
		addi r1, r1, 1
		addi r1, r1, 2
		halt
	`
	t.Run("widen", func(t *testing.T) {
		c, img := load(t, src, DefaultConfig())
		c.OnSyscall = func(c *CPU) error {
			return c.Mem.Protect(img.Base, uint64(len(img.Code)), mem.PermRWX)
		}
		mustRun(t, c, 1000)
		if c.Regs[1] != 8 {
			t.Fatalf("r1 = %d, want 8", c.Regs[1])
		}
	})
	t.Run("revoke-exec", func(t *testing.T) {
		run := func(noBlocks bool) error {
			cfg := DefaultConfig()
			cfg.NoBlocks = noBlocks
			c, img := load(t, src, cfg)
			c.OnSyscall = func(c *CPU) error {
				return c.Mem.Protect(img.Base, uint64(len(img.Code)), mem.PermRW)
			}
			return c.Run(1000)
		}
		errB, errS := run(false), run(true)
		if errB == nil || errS == nil {
			t.Fatalf("revoked execute permission did not fault: blocks=%v single-step=%v", errB, errS)
		}
		if errB.Error() != errS.Error() {
			t.Fatalf("tiers fault differently:\n  blocks:      %v\n  single-step: %v", errB, errS)
		}
	})
}

// TestBlockStraddlesPageBoundary: a block whose bytes span two code
// pages must be invalidated by a write to either page. The loop body is
// positioned across the first page boundary with NOP padding, and the
// program patches an instruction on the *second* page.
func TestBlockStraddlesPageBoundary(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".entry main\nmain:\n")
	// 16-byte instructions, 4096-byte pages: after 250 NOPs plus the
	// 3-instruction prologue the loop starts at instruction 253 of 256,
	// so its body crosses into the second page.
	sb.WriteString("\tmovi r1, slot\n\tmovi r4, 0\n\tmovi r5, 6\n")
	for i := 0; i < 250; i++ {
		sb.WriteString("\tnop\n")
	}
	sb.WriteString(`
	loop:
		load r2, [r1+4]
		addi r2, r2, 1
		store [r1+4], r2
	slot:
		movi r3, 0
		add r4, r4, r3
		subi r5, r5, 1
		cmpi r5, 0
		jne loop
		halt
	`)
	run := func(noBlocks bool) *CPU {
		cfg := DefaultConfig()
		cfg.NoBlocks = noBlocks
		c, img := loadRWX(t, sb.String(), cfg)
		if img.MustSymbol("loop")/mem.PageSize == img.MustSymbol("slot")/mem.PageSize {
			t.Fatalf("layout broken: loop (%#x) and slot (%#x) on the same page",
				img.MustSymbol("loop"), img.MustSymbol("slot"))
		}
		mustRun(t, c, 10000)
		return c
	}
	cb, cs := run(false), run(true)
	if cb.Regs[4] != cs.Regs[4] {
		t.Fatalf("tiers disagree: blocks r4=%d, single-step r4=%d", cb.Regs[4], cs.Regs[4])
	}
	if cb.Snapshot() != cs.Snapshot() {
		t.Fatalf("tiers disagree on the machine:\nblocks:      %+v\nsingle-step: %+v",
			cb.Snapshot(), cs.Snapshot())
	}
	var straddling bool
	for _, b := range cb.Blocks() {
		if b.StartPC/mem.PageSize != (b.EndPC-1)/mem.PageSize {
			straddling = true
		}
	}
	if !straddling {
		t.Error("no compiled block straddles a page boundary; the test lost its setup")
	}
	if st := cb.BlockStats(); st.Invalidations == 0 {
		t.Errorf("patching the straddled page caused no invalidations: %+v", st)
	}
}

// TestBlockChaining: a tight loop must settle into chained dispatch —
// block-cache hits far outnumber compiles — and the introspection
// surface must report the loop block as hot and currently valid.
func TestBlockChaining(t *testing.T) {
	c, _ := load(t, `
		movi r1, 5000
	loop:
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`, DefaultConfig())
	mustRun(t, c, 100000)
	st := c.BlockStats()
	if st.Compiled == 0 || st.Hits < 4000 {
		t.Fatalf("loop did not settle into cached dispatch: %+v", st)
	}
	blocks := c.Blocks()
	var hot *BlockInfo
	for i := range blocks {
		if blocks[i].Hits > 1000 {
			hot = &blocks[i]
		}
	}
	if hot == nil {
		t.Fatalf("no hot block in %+v", blocks)
	}
	if !hot.Valid || hot.Exit != "jne" {
		t.Errorf("hot loop block mis-described: %+v", *hot)
	}
}

// TestBlockTelemetryEquivalence: a telemetry-enabled core stays on the
// block tier, and its event stream — retire order, event cycles, probe
// classifications — is identical to the single-step interpreter's.
func TestBlockTelemetryEquivalence(t *testing.T) {
	src := `
		movi r1, arr
		movi r2, 40
		movi r5, 0
	loop:
		load r3, [r1+8]
		store [r1+16], r3
		add r5, r5, r3
		clflush [r1+8]
		subi r2, r2, 1
		cmpi r2, 0
		jne loop
		halt
	.data
	arr: .space 64
	`
	run := func(noBlocks bool) []telemetry.Event {
		cfg := DefaultConfig()
		cfg.NoBlocks = noBlocks
		c, _ := load(t, src, cfg)
		rec := telemetry.NewRecorder(1 << 16)
		c.AttachTelemetry(rec)
		mustRun(t, c, 100000)
		if !noBlocks {
			if st := c.BlockStats(); st.Hits == 0 {
				t.Fatalf("telemetry run left the block tier: %+v", st)
			}
		}
		return rec.Events()
	}
	evB, evS := run(false), run(true)
	if len(evB) != len(evS) {
		t.Fatalf("event counts differ: blocks=%d single-step=%d", len(evB), len(evS))
	}
	for i := range evB {
		if evB[i] != evS[i] {
			t.Fatalf("event %d differs:\nblocks:      %+v\nsingle-step: %+v", i, evB[i], evS[i])
		}
	}
}

// TestBlockRunZeroAlloc is the zero-allocation gate, on both tiers: once
// the loop's blocks are compiled, steady-state Run must not allocate —
// not for dispatch, not for speculation episodes (pooled specState), not
// for store-bypass tracking. On the single-step tier it also proves that
// Step's one-instruction body never escapes to the heap, which would cost
// an allocation per retired instruction. The workload deliberately
// includes a mispredicting data-dependent branch (speculation episodes
// every few iterations) and an in-flight store feeding a reload (the v4
// store-buffer machinery).
func TestBlockRunZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		noBlocks bool
	}{
		{"blocks", false},
		{"noblocks", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NoBlocks = tc.noBlocks
			c, img := load(t, `
				movi r1, arr
			loop:
				clflush [r1+8]      ; force a miss: the next load lands late
				load r3, [r1+8]
				store [r1+16], r3   ; r3 still in flight: pending-store tracking
				load r4, [r1+16]    ; reload in the bypass window
				cmpi r3, 0          ; flags depend on the missed load: unresolved
				jl skip             ; LCG sign bit: mispredicts, squashes episodes
				addi r5, r5, 1
			skip:
				load r9, [r1+8]
				muli r9, r9, 25214903917
				addi r9, r9, 11     ; step the LCG the next iteration branches on
				store [r1+8], r9
				jmp loop
			.data
			arr: .space 64
			`, cfg)
			// Warm-up: compile the blocks, train the predictors, populate
			// the store-buffer scratch. ErrBudget is the expected outcome.
			if err := c.Run(20_000); err != ErrBudget {
				t.Fatalf("warm-up: %v", err)
			}
			// A Run budget can stop execution at any instruction, making
			// that PC a block start the next Run compiles lazily — a
			// bounded, amortized cost, but this gate wants a closed steady
			// state, so compile every possible entry point up front.
			if !tc.noBlocks {
				for pc := img.Base; pc < img.Base+uint64(len(img.Code)); pc += isa.InstrSize {
					c.lookupBlock(pc)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if err := c.Run(50_000); err != ErrBudget {
					t.Fatalf("steady state: %v", err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state Run allocates %.1f objects per call, want 0", avg)
			}
			if hits := c.BlockStats().Hits; (hits != 0) == tc.noBlocks {
				t.Fatalf("zero-alloc gate measured the wrong tier: %d block hits", hits)
			}
			if s := c.Snapshot(); s.Squashes == 0 || s.SpecBypasses == 0 {
				t.Fatalf("workload produced %d squashes, %d bypass episodes; the gate is not covering episodes",
					s.Squashes, s.SpecBypasses)
			}
		})
	}
}

// TestBlockBudgetExactness: Run(n) on the block tier retires exactly n
// instructions (blocks bigger than the remaining budget are
// single-stepped), so sliced execution matches one long run.
func TestBlockBudgetExactness(t *testing.T) {
	src := `
		movi r1, 0
	loop:
		addi r1, r1, 1
		addi r2, r2, 2
		addi r3, r3, 3
		cmpi r1, 100000
		jne loop
		halt
	`
	c, _ := load(t, src, DefaultConfig())
	var steps uint64
	for slice := uint64(1); !c.Halted(); slice = slice*3 + 1 {
		err := c.Run(slice)
		if err != nil && err != ErrBudget {
			t.Fatal(err)
		}
		want := steps + slice
		if err == ErrBudget && c.Instret() != want {
			t.Fatalf("Run(%d) after %d retired %d instructions, want exactly %d",
				slice, steps, c.Instret()-steps, slice)
		}
		steps = c.Instret()
	}
	long, _ := load(t, src, DefaultConfig())
	mustRun(t, long, 10_000_000)
	if c.Cycle != long.Cycle || c.Snapshot() != long.Snapshot() {
		t.Fatalf("sliced run diverged from one-shot run:\nsliced:   %+v\none-shot: %+v",
			c.Snapshot(), long.Snapshot())
	}
}

// TestBlockExitLabels pins the BlockInfo exit labels the simdbg -blocks
// dump prints: every exit by its mnemonic, the serializing LFENCE, MFENCE
// and SYSCALL included, and "fallthrough" for a full body that ends
// without one. Every entry is a real block: no PC is left to a
// placeholder.
func TestBlockExitLabels(t *testing.T) {
	c, _ := load(t, `
		movi r1, 3
	loop:
		subi r1, r1, 1
		lfence
		mfence
		cmpi r1, 0
		jne loop
		call f
	`+strings.Repeat("nop\n", maxBlockOps)+`
		syscall
		halt
	f:
		ret
	`, DefaultConfig())
	c.OnSyscall = func(*CPU) error { return nil }
	mustRun(t, c, 1000)
	seen := map[string]bool{}
	for _, b := range c.Blocks() {
		seen[b.Exit] = true
		if b.Instrs < 1 {
			t.Errorf("block %#x: exit %q with %d instrs", b.StartPC, b.Exit, b.Instrs)
		}
		if b.Exit == "fallthrough" && b.Instrs != maxBlockOps {
			t.Errorf("block %#x falls through after %d instrs, want a full %d", b.StartPC, b.Instrs, maxBlockOps)
		}
	}
	for _, exit := range []string{"fallthrough", "lfence", "mfence", "syscall", "jne", "call", "ret", "halt"} {
		if !seen[exit] {
			t.Errorf("no block labelled %q: %+v", exit, c.Blocks())
		}
	}
	if len(seen) != 8 {
		t.Errorf("exit labels %v, want exactly the eight above", seen)
	}
}

// TestBlockSerializingExits: a hot loop of CLFLUSH, LFENCE, MFENCE and
// SYSCALL runs its fences and SYSCALL as block exits, and the block tier
// ends in the single-step tier's exact state. The handler counts its
// calls and sums the retire count it sees, which holds both tiers to
// one view of the core from inside a SYSCALL.
func TestBlockSerializingExits(t *testing.T) {
	const src = `
		movi r1, 200
		movi r2, buf
	loop:
		clflush [r2]
		load r3, [r2]
		lfence
		addi r4, r4, 1
		mfence
		movi r0, 1
		syscall
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	.data
	buf: .word 7
	`
	type result struct {
		c             *CPU
		calls, instrs uint64
	}
	run := func(noBlocks bool) result {
		cfg := DefaultConfig()
		cfg.NoBlocks = noBlocks
		c, _ := load(t, src, cfg)
		var r result
		c.OnSyscall = func(c *CPU) error {
			r.calls++
			r.instrs += c.Instret()
			c.Regs[5] += c.Regs[0]
			return nil
		}
		mustRun(t, c, 100_000)
		r.c = c
		return r
	}
	b, s := run(false), run(true)
	if b.calls != 200 || s.calls != 200 {
		t.Fatalf("handler ran %d (blocks) and %d (single-step) times, want 200", b.calls, s.calls)
	}
	if b.instrs != s.instrs {
		t.Errorf("handler saw %d retirements in sum on blocks, %d on single-step", b.instrs, s.instrs)
	}
	if b.c.Snapshot() != s.c.Snapshot() || b.c.Instret() != s.c.Instret() || b.c.PC != s.c.PC || b.c.Regs != s.c.Regs {
		t.Fatalf("tiers diverge:\nblocks:      %+v pc=%#x regs=%v\nsingle-step: %+v pc=%#x regs=%v",
			b.c.Snapshot(), b.c.PC, b.c.Regs, s.c.Snapshot(), s.c.PC, s.c.Regs)
	}
	exits := map[string]bool{}
	for _, blk := range b.c.Blocks() {
		if blk.Hits > 0 {
			exits[blk.Exit] = true
		}
	}
	for _, exit := range []string{"lfence", "mfence", "syscall"} {
		if !exits[exit] {
			t.Errorf("no hot block exits through %s: %+v", exit, b.c.Blocks())
		}
	}
}

// TestBlockSerializingFaults: a serializing exit that fails does not
// retire, and both tiers report it alike. A privileged MFENCE faults on
// itself; a SYSCALL faults past itself, where serialize hands the core
// to its handler, whether the handler fails or there is none.
func TestBlockSerializingFaults(t *testing.T) {
	const fence = `
		movi r1, 1
		addi r1, r1, 1
	at:
		mfence
		halt
	`
	const syscall = `
		movi r0, 9
		addi r1, r1, 1
		syscall
	at:
		halt
	`
	errHandler := errors.New("handler failed")
	for _, tc := range []struct {
		name    string
		src     string
		edit    func(*Config)
		handler SyscallFn
	}{
		{"mfence-privileged", fence, func(c *Config) { c.PrivilegedFlush = true }, nil},
		{"syscall-handler-error", syscall, nil, func(*CPU) error { return errHandler }},
		{"syscall-no-handler", syscall, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				f            Fault
				instret, cyc uint64
			}
			run := func(noBlocks bool) (result, uint64) {
				cfg := DefaultConfig()
				cfg.NoBlocks = noBlocks
				if tc.edit != nil {
					tc.edit(&cfg)
				}
				c, img := load(t, tc.src, cfg)
				c.OnSyscall = tc.handler
				err := c.Run(1000)
				var f *Fault
				if !errors.As(err, &f) {
					t.Fatalf("noblocks=%v: got %v, want a fault", noBlocks, err)
				}
				at, _ := img.Symbol("at")
				return result{*f, c.Instret(), c.Cycle}, at
			}
			b, at := run(false)
			s, _ := run(true)
			if b.f.PC != at || s.f.PC != at {
				t.Errorf("fault PC %#x (blocks), %#x (single-step), want %#x", b.f.PC, s.f.PC, at)
			}
			if b.instret != 2 || s.instret != 2 {
				t.Errorf("retired %d (blocks), %d (single-step), want the 2 before the fault", b.instret, s.instret)
			}
			if b.cyc != s.cyc || b.f.Err.Error() != s.f.Err.Error() {
				t.Errorf("tiers fault differently: blocks cycle %d %v, single-step cycle %d %v",
					b.cyc, b.f.Err, s.cyc, s.f.Err)
			}
		})
	}
}

// TestBlockStatsSizesSumToCompiled: every compiled (counted) block lands
// in exactly one Sizes cell, so the per-size census and the Compiled
// total are two views of the same events — the invariant the telemetry
// block-size histogram depends on for exact sums.
func TestBlockStatsSizesSumToCompiled(t *testing.T) {
	src := `
		movi r1, 200
		movi r2, 0
	loop:
		add r2, r2, r1
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`
	c, _ := load(t, src, DefaultConfig())
	mustRun(t, c, 100000)
	st := c.BlockStats()
	if st.Compiled == 0 {
		t.Fatal("nothing compiled")
	}
	var sum uint64
	for size, n := range st.Sizes {
		if n > 0 && size == 0 {
			t.Errorf("zero-retire block counted in Sizes")
		}
		sum += n
	}
	if sum != st.Compiled {
		t.Errorf("Sizes sum %d != Compiled %d", sum, st.Compiled)
	}
}
