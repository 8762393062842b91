package progen

import (
	"runtime"
	"testing"
)

// TestNewMemAllocatesTouchedPagesOnly: a generated program's memory costs
// the pages its code and data occupy, not its whole address space.
func TestNewMemAllocatesTouchedPagesOnly(t *testing.T) {
	p := Generate(1, DefaultOptions())
	const bound = 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.NewMem(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= bound {
		t.Errorf("NewMem for a %d KiB memory allocated %d KiB, want under %d KiB",
			p.MemSize>>10, alloc>>10, bound>>10)
	}
}

// TestLoadIntoAfterResetAllocatesNothing: a memory reset and reloaded
// with the program it held backs every page from the pages Reset
// released, so a reused machine's memory costs nothing per run.
func TestLoadIntoAfterResetAllocatesNothing(t *testing.T) {
	p := Generate(1, DefaultOptions())
	m, err := p.NewMem()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset(m.Size())
		if err := p.LoadInto(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset + LoadInto allocated %.0f objects, want 0", allocs)
	}
}
