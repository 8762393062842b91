package mibench

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/rop"
	"repro/internal/vm"
)

// runHost executes a workload's host binary with a benign argument and
// returns its output.
func runHost(t *testing.T, w Workload, budget uint64) string {
	t.Helper()
	mod, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		t.Fatalf("%s: assemble: %v", w.Name, err)
	}
	m := vm.New(vm.DefaultConfig())
	m.Register(w.Name, mod, 0x100000)
	if err := m.Exec(w.Name, []byte("x"), budget); err != nil {
		t.Fatalf("%s: run: %v\noutput so far: %q", w.Name, err, m.Output.String())
	}
	return m.Output.String()
}

// TestWorkloadsMatchReference is the suite's keystone: every assembly
// kernel must print exactly the checksum its Go mirror computes.
func TestWorkloadsMatchReference(t *testing.T) {
	// Smaller sizes than the standard instances keep this fast while
	// exercising every code path.
	small := []Workload{
		Math(50),
		Bitcount("bitcount", 200),
		SHA1(2),
		SHA2(2),
		Qsort(64),
		CRC32(100),
		Dijkstra(2),
		StringSearch(500),
		FFT(2),
		Susan(2),
		Editor(3),
		Chase("chase", 2_000, 10),
		StreamStride("stream64", 1, 64),
	}
	for _, w := range small {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			got := runHost(t, w, 100_000_000)
			if got != w.Expected() {
				t.Errorf("output %q, want %q", got, w.Expected())
			}
		})
	}
}

// TestStandardInstancesRun checks the experiment-sized instances
// complete and match their references (slower; still well within CI).
func TestStandardInstancesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("standard instances skipped in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			got := runHost(t, w, 400_000_000)
			if got != w.Expected() {
				t.Errorf("output %q, want %q", got, w.Expected())
			}
		})
	}
}

func TestSuiteNamesMatchTableI(t *testing.T) {
	want := []string{"math", "bitcount_50M", "bitcount_100M", "sha_1", "sha_2"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d entries", len(suite))
	}
	for i, w := range suite {
		if w.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, w.Name, want[i])
		}
	}
}

func TestBitcountVariantsScale(t *testing.T) {
	// 100M must do roughly twice the work of 50M — verify via expected
	// checksums being different and both nonzero.
	a := Bitcount("a", 1000)
	b := Bitcount("b", 2000)
	if a.Expected() == b.Expected() {
		t.Error("bitcount sizes produce identical checksums")
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("qsort")
	if err != nil || w.Name != "qsort" {
		t.Errorf("ByName(qsort) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown workload")
	}

	// A lookup builds the catalogue's source texts, and runs no Go
	// reference: Chase's builds a 1 MiB table, three of them a call.
	const calls, bound = 10, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ByName("math"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= bound {
		t.Errorf("ByName allocated %d B a call, want under %d", per, bound)
	}
}

// TestHostModuleShared: HostModule assembles each (source, options) pair
// once and hands every caller the same module, and concurrent links of
// that module (at different bases, as ASLR gives them) only read it,
// which the race detector checks.
func TestHostModuleShared(t *testing.T) {
	w := SHA1(2)
	opts := rop.HostOptions{Secret: "shared"}
	const workers = 4
	mods := make([]*isa.Module, workers)
	var wg sync.WaitGroup
	for i := range mods {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mod, err := w.HostModule(opts)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := mod.Link(uint64(0x100000 + i*isa.PageSize)); err != nil {
				t.Error(err)
			}
			mods[i] = mod
		}(i)
	}
	wg.Wait()
	for i, mod := range mods {
		if mod != mods[0] {
			t.Fatalf("call %d got its own module", i)
		}
	}
	other, err := w.HostModule(rop.HostOptions{Secret: "shared", Canary: true})
	if err != nil {
		t.Fatal(err)
	}
	if other == mods[0] {
		t.Error("different host options shared one module")
	}
}

func TestHostsAssembleWithCanary(t *testing.T) {
	for _, w := range All() {
		if _, err := w.HostModule(rop.HostOptions{Canary: true}); err != nil {
			t.Errorf("%s with canary: %v", w.Name, err)
		}
	}
}

// TestWorkloadsHaveDistinctSignatures: the HID premise — different hosts
// produce different micro-architectural profiles. Compare coarse IPC
// across two texturally different kernels.
func TestWorkloadsHaveDistinctSignatures(t *testing.T) {
	run := func(w Workload) float64 {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(vm.DefaultConfig())
		m.Register(w.Name, mod, 0x100000)
		if err := m.Exec(w.Name, []byte("x"), 100_000_000); err != nil {
			t.Fatal(err)
		}
		return m.CPU.IPC()
	}
	sha := run(SHA1(4))
	dij := run(Dijkstra(2))
	if sha == dij {
		t.Error("distinct kernels produced identical IPC")
	}
}

// TestIPCCharacterization pins the relative micro-architectural
// character of key workloads: the ALU-bound bitcount must run at a
// higher IPC than the division-heavy math kernel and the miss-bound
// pointer chase — the diversity the HID's feature space relies on.
func TestIPCCharacterization(t *testing.T) {
	ipc := func(w Workload) float64 {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(vm.DefaultConfig())
		m.Register(w.Name, mod, 0x100000)
		if err := m.Exec(w.Name, []byte("x"), 200_000_000); err != nil {
			t.Fatal(err)
		}
		return m.CPU.IPC()
	}
	bc := ipc(Bitcount("bc", 5_000))
	mth := ipc(Math(300))
	chase := ipc(Chase("ch", 100_000, 0)) // enough steps that the miss chain dominates the table-init phase
	if !(bc > mth) {
		t.Errorf("bitcount IPC %.3f not above math %.3f", bc, mth)
	}
	if !(mth > chase) {
		t.Errorf("math IPC %.3f not above chase %.3f", mth, chase)
	}
	if chase > 0.2 {
		t.Errorf("pointer chase IPC %.3f implausibly high for a serialized miss chain", chase)
	}
}

// BenchmarkByName is the cost of one catalogue lookup: ByName builds
// every workload of AllWithBackgrounds, source text and all, to find
// one by name.
func BenchmarkByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ByName("math"); err != nil {
			b.Fatal(err)
		}
	}
}
