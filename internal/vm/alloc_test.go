package vm_test

import (
	"runtime"
	"testing"

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
	if got := m.Output.String(); got != w.Expected {
		t.Fatalf("output %q, want %q", got, w.Expected)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= bound {
		t.Errorf("%d MiB machine allocated %.2f MiB running %s, want under %d MiB",
			vm.DefaultMemSize>>20, float64(alloc)/(1<<20), w.Name, bound>>20)
	}
}
