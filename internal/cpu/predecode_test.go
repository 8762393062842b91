package cpu

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// loadRWX is load() with the code page left writable (RWX), the mapping a
// self-modifying or injected-code program needs.
func loadRWX(t *testing.T, src string, cfg Config) (*CPU, *isa.Image) {
	t.Helper()
	mod, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(4 << 20)
	if err := m.LoadRaw(img.Base, img.Code); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(img.Base, uint64(len(img.Code)), mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	top := m.Size() - mem.PageSize
	if err := m.Protect(top-(64<<10), 64<<10, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(m, cfg)
	c.PC = img.Entry
	c.Regs[isa.RegSP] = top
	return c, img
}

// TestPredecodeSelfModifyingCode runs a program on an RWX page that
// patches the immediate of an instruction it already executed (and hence
// predecoded), then re-executes it. The store's generation bump must
// invalidate the cached decode so the second pass sees the new bytes.
func TestPredecodeSelfModifyingCode(t *testing.T) {
	c, img := loadRWX(t, `
		movi r3, 0
	target:
		movi r1, 1           ; imm slot patched to 42 by the store below
		cmpi r3, 1
		je done
		movi r3, 1
		store [r7], r2       ; r7 = &target.imm, r2 = 42 (preset)
		jmp target
	done:
		halt
	`, DefaultConfig())
	// "target" is the second instruction; its imm field starts 4 bytes in.
	c.Regs[7] = img.Base + 1*isa.InstrSize + 4
	c.Regs[2] = 42
	mustRun(t, c, 100000)
	if c.Regs[1] != 42 {
		t.Errorf("r1 = %d after self-modification, want 42 (stale predecode?)", c.Regs[1])
	}
}

// TestPredecodeStaleAfterProtect warms the predecode cache, then revokes
// exec permission on the code page. The next fetch must take the DEP
// fault rather than serving the cached decode.
func TestPredecodeStaleAfterProtect(t *testing.T) {
	c, img := load(t, `
		movi r1, 7
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if err := c.Mem.Protect(img.Base, uint64(len(img.Code)), mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.Resume()
	c.PC = img.Entry
	err := c.Step()
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultExec {
		t.Fatalf("step after exec revoke: err = %v, want DEP fault", err)
	}
}

// TestPredecodeStaleAfterRemap warms the cache with one program, then maps
// a different image over the same base through the loader channel. The
// rerun must execute the new program.
func TestPredecodeStaleAfterRemap(t *testing.T) {
	c, img := load(t, `
		movi r1, 1
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[1] != 1 {
		t.Fatalf("first image: r1 = %d, want 1", c.Regs[1])
	}

	mod, err := isa.Assemble(`
		movi r1, 2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := mod.Link(img.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mem.LoadRaw(img2.Base, img2.Code); err != nil {
		t.Fatal(err)
	}
	c.Resume()
	c.PC = img2.Entry
	mustRun(t, c, 1000)
	if c.Regs[1] != 2 {
		t.Errorf("remapped image: r1 = %d, want 2 (stale predecode?)", c.Regs[1])
	}
}

// TestPredecodeStraddlingPCUncached drives execution onto a non-aligned PC
// whose instruction straddles a page boundary: the fill path must refuse
// to cache it and the uncached fetch must still fault correctly when the
// second page is not executable.
func TestPredecodeStraddlingPCUncached(t *testing.T) {
	m := mem.New(1 << 20)
	// Only the first page executable; a fetch starting InstrSize-1 bytes
	// before its end straddles into a mapped but non-exec page.
	if err := m.Protect(0, mem.PageSize, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(mem.PageSize, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.PC = mem.PageSize - (isa.InstrSize - 1)
	err := c.Step()
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultExec {
		t.Fatalf("straddling fetch: err = %v, want exec fault", err)
	}
}

// TestPredecodeLargeCodeToEndOfMemory runs a loop whose body spans 20
// pages (80 KiB, more code than 4096 instruction slots hold) and whose
// last instruction sits in the last instruction slot of memory, on both
// tiers. Three passes run the body; after the first, a store patches the
// immediate of an instruction on an already-fetched page in the middle
// of the body. When the loop falls through, the fetch one slot past the
// end of memory faults. A Protect flip on another fetched page then
// turns the rerun into an exec fault. Both tiers must agree on every
// counter, register and fault, and the noblocks tier, which fetches
// every instruction through the predecode cache, must have built a
// table for exactly the code pages.
func TestPredecodeLargeCodeToEndOfMemory(t *testing.T) {
	const (
		memSize   = 1 << 20
		codePages = 20
		codeBase  = memSize - codePages*mem.PageSize
		n         = codePages * mem.PageSize / isa.InstrSize
		flipPage  = codeBase/mem.PageSize + 7
	)
	var src strings.Builder
	src.WriteString("movi r2, 3\nmovi r6, 100\nmovi r7, patch\naddi r7, r7, 4\nloop:\n")
	const prologue, tail = 4, 4
	filler := n - prologue - tail - 1
	for i := 0; i < filler; i++ {
		if i == filler/2 {
			src.WriteString("patch: addi r3, r3, 1\n") // imm becomes 100 after pass 1
		}
		src.WriteString("addi r1, r1, 1\n")
	}
	src.WriteString("store [r7], r6\nsubi r2, r2, 1\ncmpi r2, 0\njne loop\n")
	mod, err := isa.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	if end := img.Base + uint64(len(img.Code)); end != memSize {
		t.Fatalf("code ends at %#x, want the end of memory %#x", end, memSize)
	}

	type outcome struct {
		snap      Snapshot
		regs      [isa.NumRegs]uint64
		err, flip string
		flipSnap  Snapshot
	}
	run := func(noBlocks bool) outcome {
		m := mem.New(memSize)
		if err := m.LoadRaw(img.Base, img.Code); err != nil {
			t.Fatal(err)
		}
		if err := m.Protect(img.Base, uint64(len(img.Code)), mem.PermRWX); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NoBlocks = noBlocks
		c := New(m, cfg)
		c.PC = img.Entry
		err := c.Run(1 << 20)
		var f *Fault
		var mf *mem.Fault
		if !errors.As(err, &f) || f.PC != memSize || !errors.As(err, &mf) ||
			mf.Kind != mem.FaultUnmapped || mf.Addr != memSize {
			t.Fatalf("noblocks=%v: fall-through off the end: err = %v, want unmapped fault at %#x",
				noBlocks, err, uint64(memSize))
		}
		if want := uint64(3 * filler); c.Regs[1] != want {
			t.Errorf("noblocks=%v: r1 = %d, want %d", noBlocks, c.Regs[1], want)
		}
		if c.Regs[3] != 1+100+100 {
			t.Errorf("noblocks=%v: r3 = %d, want 201 (patched immediate not seen)", noBlocks, c.Regs[3])
		}
		if noBlocks {
			for pg, tab := range c.icache {
				if code := pg >= codeBase/mem.PageSize; (tab != nil) != code {
					t.Errorf("page %d: predecode table present = %v, want %v", pg, tab != nil, code)
				}
			}
		}
		o := outcome{snap: c.Snapshot(), regs: c.Regs, err: err.Error()}

		if err := m.Protect(flipPage*mem.PageSize, mem.PageSize, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		c.PC = img.Entry
		err = c.Run(1 << 20)
		if !errors.As(err, &mf) || mf.Kind != mem.FaultExec || mf.Addr != flipPage*mem.PageSize {
			t.Fatalf("noblocks=%v: rerun after exec revoke: err = %v, want exec fault at %#x",
				noBlocks, err, uint64(flipPage*mem.PageSize))
		}
		o.flip, o.flipSnap = err.Error(), c.Snapshot()
		return o
	}
	blocks, single := run(false), run(true)
	if blocks != single {
		t.Errorf("tiers disagree:\nblocks   %+v\nnoblocks %+v", blocks, single)
	}
}

// TestResetPredecodeAllocs is the predecode free-list gate. A core runs
// one program at three load bases, as ASLR slides it between runs, with
// a reset before each. Reset detaches every table the last run attached,
// so the core keeps only as many as one run uses, and after the final
// reset no table is attached and the next run, at a fourth base, takes
// every table it needs from the free list.
func TestResetPredecodeAllocs(t *testing.T) {
	// 300 instructions span two code pages at any base.
	mod, err := isa.Assemble("movi r2, 0\n" + strings.Repeat("addi r2, r2, 1\n", 300) + "halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(4 << 20)
	cfg := DefaultConfig()
	c := New(m, cfg)
	run := func(base uint64) {
		t.Helper()
		m.Reset(m.Size())
		img, err := mod.Link(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.MapInto(m); err != nil {
			t.Fatal(err)
		}
		c.Reset(m, cfg)
		c.PC = img.Entry
		if err := c.Run(1 << 20); err != nil {
			t.Fatal(err)
		}
		if c.Regs[2] != 300 {
			t.Fatalf("base %#x: r2 = %d, want 300", base, c.Regs[2])
		}
	}
	attached := func() (pages []*icachePage) {
		for _, tab := range c.icache {
			if tab != nil {
				pages = append(pages, tab)
			}
		}
		return pages
	}
	for i, base := range []uint64{0x10000, 0x23000, 0x37000} {
		run(base)
		if n := len(attached()); n != 2 {
			t.Fatalf("run %d attached %d predecode tables, want 2", i, n)
		}
		if n := len(c.icachePages); n != 2 {
			t.Errorf("after run %d the core keeps %d predecode tables, want the 2 one run uses", i, n)
		}
	}

	c.Reset(m, cfg)
	if pages := attached(); len(pages) != 0 {
		t.Errorf("%d predecode tables stayed attached after Reset", len(pages))
	}
	free := slices.Clone(c.icachePages)
	for i, tab := range free {
		if *tab != (icachePage{}) {
			t.Errorf("free predecode table %d kept entries", i)
		}
	}
	run(0x4a000)
	for _, tab := range attached() {
		if !slices.Contains(free, tab) {
			t.Errorf("the run after Reset allocated predecode table %p", tab)
		}
	}
	if len(c.icachePages) != len(free) {
		t.Errorf("the core keeps %d predecode tables after the run, want %d", len(c.icachePages), len(free))
	}
}
