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
