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

// TestGenerateAllocs: a generation allocates only the program it
// returns, Code and Data; its instruction, label and function slices and
// its RNG come from a pooled generator.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled generators at random")
	}
	if allocs := testing.AllocsPerRun(20, func() { Generate(1, DefaultOptions()) }); allocs != 2 {
		t.Errorf("Generate allocated %.0f objects, want 2 (Code and Data)", allocs)
	}
}

// BenchmarkGenerate measures generating one difftest program, the
// per-program cost cmd/difftest pays before its machines run.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchProgram = Generate(int64(i), DefaultOptions())
	}
}

// benchProgram keeps BenchmarkGenerate's result live.
var benchProgram Program
