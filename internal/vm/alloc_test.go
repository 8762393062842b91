package vm_test

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/vm"
)

// TestMachineAllocatesTouchedPagesOnly is the demand-paging gate: a
// default 16 MiB machine running a small MiBench host must cost host
// memory for the pages it touches, not for its whole address space.
func TestMachineAllocatesTouchedPagesOnly(t *testing.T) {
	w := mibench.Math(50)
	mod, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := vm.New(vm.DefaultConfig())
	m.Register(w.Name, mod, 0x100000)
	if err := m.Exec(w.Name, []byte("x"), 100_000_000); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := m.Output.String(); got != w.Expected() {
		t.Fatalf("output %q, want %q", got, w.Expected())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= bound {
		t.Errorf("%d MiB machine allocated %.2f MiB running %s, want under %d MiB",
			vm.DefaultMemSize>>20, float64(alloc)/(1<<20), w.Name, bound>>20)
	}
}

// benchHost assembles the fixed host BenchmarkMachineNew and
// BenchmarkMachineReset start: the campaigns' CR host, math.
func benchHost(b *testing.B) *isa.Module {
	mod, err := mibench.Math(300).HostModule(rop.HostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

// startHost registers, loads and starts mod on m: the set-up every
// campaign run pays before its first instruction.
func startHost(b *testing.B, m *vm.Machine, mod *isa.Module) {
	m.Register("math", mod, 0x100000)
	if _, err := m.Load("math"); err != nil {
		b.Fatal(err)
	}
	if err := m.Start("math"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMachineNew measures a new default machine made ready to run a
// host: New, Register, Load and Start.
func BenchmarkMachineNew(b *testing.B) {
	mod := benchHost(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		startHost(b, vm.New(vm.DefaultConfig()), mod)
	}
}

// BenchmarkMachineReset is BenchmarkMachineNew on one machine reset in
// place instead of built anew.
func BenchmarkMachineReset(b *testing.B) {
	mod := benchHost(b)
	m := vm.New(vm.DefaultConfig())
	startHost(b, m, mod)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(vm.DefaultConfig())
		startHost(b, m, mod)
	}
}
