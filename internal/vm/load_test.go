package vm_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// TestLoadAllocatesNoZeros is the zero-free loader gate: linking and
// loading a module into a reset machine costs its code, symbols and
// initialised data, not its .space tables. The v1 attack binary carries
// a 128 KiB probe array and the chase host a 1 MiB table; a loader that
// stores either allocates far more than the bound.
func TestLoadAllocatesNoZeros(t *testing.T) {
	v1, err := spectre.Config{Variant: spectre.V1BoundsCheck, TargetAddr: 0x200000, SecretLen: 8}.Module()
	if err != nil {
		t.Fatal(err)
	}
	w, err := mibench.ByName("chase_fast")
	if err != nil {
		t.Fatal(err)
	}
	chase, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 32 << 10
	for name, mod := range map[string]*isa.Module{"v1": v1, "chase": chase} {
		m := vm.New(vm.DefaultConfig())
		m.Register(name, mod, 0x100000)
		if _, err := m.Load(name); err != nil { // back the pages once
			t.Fatal(err)
		}
		m.Reset(vm.DefaultConfig())
		m.Register(name, mod, 0x100000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := m.Load(name)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("%s: Link + Load of %d code and %d data bytes allocated %d bytes, want < %d",
				name, len(img.Code), img.DataSize, got, bound)
		}
	}
}

// TestLoadClearsBackedGap: a .space gap that lands on pages an earlier
// load backed reads zero after Load, as loading the dense section did.
func TestLoadClearsBackedGap(t *testing.T) {
	dirty := isa.MustAssemble("halt\n.data\n.space 12288 0xee")
	clean := isa.MustAssemble("halt\n.data\n.byte 1\n.space 8190\n.byte 2")
	m := vm.New(vm.DefaultConfig())
	m.Register("dirty", dirty, 0x100000)
	m.Register("clean", clean, 0x100000)
	if _, err := m.Load("dirty"); err != nil {
		t.Fatal(err)
	}
	img, err := m.Load("clean")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8192)
	want[0], want[8191] = 1, 2
	got, err := m.Mem.ReadBytes(img.DataBase, img.DataSize)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(got, 0xee); i >= 0 || !bytes.Equal(got, want) {
		t.Errorf("data section after Load differs from the dense section (stale byte at %d)", i)
	}
	// Past the section, the page keeps what the earlier load stored.
	if b, _ := m.Mem.PeekRaw(img.DataBase+8192, 1); b[0] != 0xee {
		t.Errorf("byte past the section = %#x, want the earlier load's 0xee", b[0])
	}
}

// TestSharedModuleLoadsConcurrently: images share their module's data,
// so two machines linking and running one memoised host at once must not
// race (run under -race) and must both print its output.
func TestSharedModuleLoadsConcurrently(t *testing.T) {
	w := mibench.Chase("chase_race", 2_000, 0)
	mod, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs, errs := make([]string, 2), make([]error, 2)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := vm.DefaultConfig()
			cfg.ASLR, cfg.ASLRSeed = true, int64(i)
			m := vm.New(cfg)
			m.Register(w.Name, mod, 0x100000)
			errs[i] = m.Exec(w.Name, []byte("x"), 100_000_000)
			outs[i] = m.Output.String()
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Errorf("machine %d: %v", i, errs[i])
		} else if outs[i] != w.Expected() {
			t.Errorf("machine %d printed %q, want %q", i, outs[i], w.Expected())
		}
	}
}
