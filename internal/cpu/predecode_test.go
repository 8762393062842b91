package cpu

import (
	"errors"
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
