package rop

import (
	"strings"
	"testing"

	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/vm"
)

// trivialWorkload prints "W" so tests can tell whether the host's benign
// work ran.
const trivialWorkload = `
workload_main:
	push r1
	movi r1, 'W'
	call rt_putchar
	pop r1
	ret
`

// attackBinary prints "PWNED" and exits — a stand-in for the Spectre
// payload in injection-mechanics tests.
const attackBinary = `
	movi r0, 1
	movi r1, 'P'
	syscall
	movi r1, 'W'
	syscall
	movi r1, 'N'
	syscall
	movi r1, 'E'
	syscall
	movi r1, 'D'
	syscall
	movi r0, 0
	movi r1, 0
	syscall
`

func newHostMachine(t *testing.T, opts HostOptions) *vm.Machine {
	t.Helper()
	m := vm.New(vm.DefaultConfig())
	host, err := isa.Assemble(HostSource(trivialWorkload, opts))
	if err != nil {
		t.Fatal(err)
	}
	m.Register("host", host, 0x100000)
	m.Register("attack", isa.MustAssemble(attackBinary), 0x400000)
	return m
}

func TestBenignInputRunsWorkload(t *testing.T) {
	m := newHostMachine(t, HostOptions{})
	if err := m.Exec("host", []byte("hello"), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != "W" {
		t.Errorf("benign output = %q", got)
	}
	if len(m.ExecLog) != 0 {
		t.Errorf("benign run exec'd %v", m.ExecLog)
	}
}

func TestOverflowHijacksAndExecsAttack(t *testing.T) {
	m := newHostMachine(t, HostOptions{})
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	cat := gadget.ScanAndCatalog(img, 3)
	plan, err := PlanInjection(cat, "attack", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", plan.Payload, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != "PWNED" {
		t.Errorf("attack output = %q", got)
	}
	if len(m.ExecLog) != 1 || m.ExecLog[0] != "attack" {
		t.Errorf("exec log = %v", m.ExecLog)
	}
}

func TestInjectionLeavesRSBMisses(t *testing.T) {
	// The ROP chain's returns have no matching calls: the HID-visible
	// signature of the injection phase.
	m := newHostMachine(t, HostOptions{})
	img, _ := m.Load("host")
	plan, err := PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", plan.Payload, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.CPU.BP.Stats.ReturnMispred < 2 {
		t.Errorf("ROP run produced only %d return mispredictions", m.CPU.BP.Stats.ReturnMispred)
	}
}

func TestCanaryDetectsOverflow(t *testing.T) {
	m := newHostMachine(t, HostOptions{Canary: true})
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	// Randomise the canary like the loader would.
	canaryAddr := img.MustSymbol("__canary")
	if err := m.Mem.Write64(canaryAddr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", plan.Payload, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Aborted || m.ExitCode != vm.AbortStackSmash {
		t.Errorf("overflow not caught: aborted=%v code=%#x out=%q", m.Aborted, m.ExitCode, m.Output.String())
	}
}

func TestCanaryBenignStillWorks(t *testing.T) {
	m := newHostMachine(t, HostOptions{Canary: true})
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write64(img.MustSymbol("__canary"), 0xABCD); err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", []byte("ok"), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Aborted || m.Output.String() != "W" {
		t.Errorf("benign canary run: aborted=%v out=%q", m.Aborted, m.Output.String())
	}
}

func TestLeakedCanaryBypassesProtection(t *testing.T) {
	m := newHostMachine(t, HostOptions{Canary: true})
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	canary := uint64(0x0011223344556677)
	if err := m.Mem.Write64(img.MustSymbol("__canary"), canary); err != nil {
		t.Fatal(err)
	}
	// Attacker "leaked" the canary (info-leak primitive) and splices it.
	plan, err := PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", &canary)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", plan.Payload, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Aborted {
		t.Fatal("correct canary still aborted")
	}
	if m.Output.String() != "PWNED" {
		t.Errorf("output = %q", m.Output.String())
	}
}

func TestASLRBreaksStaleChain(t *testing.T) {
	// Plan against a non-ASLR load, then run against a slid machine:
	// the stale gadget addresses must not reach the attack binary.
	plain := newHostMachine(t, HostOptions{})
	img, _ := plain.Load("host")
	plan, err := PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := vm.DefaultConfig()
	cfg.ASLR = true
	cfg.ASLRSeed = 99
	slid := vm.New(cfg)
	host, _ := isa.Assemble(HostSource(trivialWorkload, HostOptions{}))
	slid.Register("host", host, 0x100000)
	slid.Register("attack", isa.MustAssemble(attackBinary), 0x400000)
	_ = slid.Exec("host", plan.Payload, 1_000_000) // fault or misbehave — both fine
	for _, e := range slid.ExecLog {
		if e == "attack" {
			t.Fatal("stale chain still exec'd the attack under ASLR")
		}
	}
}

func TestASLRAwareChainWorks(t *testing.T) {
	// Scanning the *slid* image (i.e. after an info leak reveals the
	// base) restores the attack — the paper's ASLR-bypass argument.
	cfg := vm.DefaultConfig()
	cfg.ASLR = true
	cfg.ASLRSeed = 42
	m := vm.New(cfg)
	host, _ := isa.Assemble(HostSource(trivialWorkload, HostOptions{}))
	m.Register("host", host, 0x100000)
	m.Register("attack", isa.MustAssemble(attackBinary), 0x400000)
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Exec("host", plan.Payload, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Output.String() != "PWNED" {
		t.Errorf("output = %q", m.Output.String())
	}
}

func TestPayloadLayout(t *testing.T) {
	var ch gadget.Chain
	ch.AppendValue(0x4141414141414141)
	canary := uint64(0xBEEF)
	payload, lay := BuildPayload(&ch, "attack", &canary)
	if lay.NameOffset != 0 || lay.CanaryOffset != BufferOffset || lay.ChainOffset != BufferOffset+8 {
		t.Errorf("layout = %+v", lay)
	}
	if !strings.HasPrefix(string(payload), "attack\x00") {
		t.Error("payload does not start with name string")
	}
	if payload[len("attack")+1] != Filler {
		t.Error("filler byte missing after name")
	}
	if len(payload) != BufferOffset+8+8 {
		t.Errorf("payload length = %d", len(payload))
	}
	// No canary: chain immediately after filler.
	_, lay2 := BuildPayload(&ch, "attack", nil)
	if lay2.CanaryOffset != -1 || lay2.ChainOffset != BufferOffset {
		t.Errorf("no-canary layout = %+v", lay2)
	}
}

func TestPlanInjectionRejectsLongName(t *testing.T) {
	m := newHostMachine(t, HostOptions{})
	img, _ := m.Load("host")
	cat := gadget.ScanAndCatalog(img, 3)
	if _, err := PlanInjection(cat, strings.Repeat("x", 200), nil); err == nil {
		t.Error("oversized attack name accepted")
	}
}

func TestLeakViaDebugRecoversBaseAndCanary(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.ASLR = true
	cfg.ASLRSeed = 1234
	m := vm.New(cfg)
	host, err := isa.Assemble(HostSource(trivialWorkload, HostOptions{Canary: true}))
	if err != nil {
		t.Fatal(err)
	}
	m.Register("host", host, 0x100000)
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	canary := uint64(0x1337C0DECAFE)
	if err := m.Mem.Write64(img.MustSymbol("__canary"), canary); err != nil {
		t.Fatal(err)
	}
	leak, err := LeakViaDebug(m, "host", 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if leak.Base != img.Base {
		t.Errorf("leaked base %#x, actual %#x", leak.Base, img.Base)
	}
	if leak.Canary != canary {
		t.Errorf("leaked canary %#x, want %#x", leak.Canary, canary)
	}
	if m.Output.Len() != 0 {
		t.Error("leak left output in the buffer")
	}
}

// TestRecon: without a leak the attacker plans against HostBase and no
// canary; with both leaks, against the slid image as loaded and the
// installed canary.
func TestRecon(t *testing.T) {
	cfg := vm.DefaultConfig()
	cfg.ASLR, cfg.ASLRSeed = true, 1234
	m := vm.New(cfg)
	host, err := isa.Assemble(HostSource(trivialWorkload, HostOptions{Canary: true}))
	if err != nil {
		t.Fatal(err)
	}
	m.Register("host", host, HostBase)
	img, err := m.Load("host")
	if err != nil {
		t.Fatal(err)
	}
	if img.Base == HostBase {
		t.Fatal("ASLR left the host at HostBase")
	}
	canary := uint64(0x1337C0DECAFE)
	if err := m.Mem.Write64(img.MustSymbol("__canary"), canary); err != nil {
		t.Fatal(err)
	}

	blind, err := Recon(m, "host", host, img, false, false, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Image.Base != HostBase || blind.Canary != nil || blind.Leak != nil {
		t.Errorf("no leak: planned at %#x, canary %v, leak %v; want %#x and neither", blind.Image.Base, blind.Canary, blind.Leak, HostBase)
	}
	leaked, err := Recon(m, "host", host, img, true, true, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if leaked.Image != img || leaked.Leak == nil || leaked.Canary == nil || *leaked.Canary != canary {
		t.Errorf("leaks: planned at %#x (loaded at %#x), canary %v, leak %v; want the loaded image and %#x", leaked.Image.Base, img.Base, leaked.Canary, leaked.Leak, canary)
	}
}

func TestDebugPathAbsentForNormalInput(t *testing.T) {
	m := newHostMachine(t, HostOptions{})
	if err := m.Exec("host", []byte("normal input"), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != "W" {
		t.Errorf("non-DBG input triggered diagnostics: %q", got)
	}
}

func TestDebugLeakParsesErrors(t *testing.T) {
	// A machine whose host lacks the debug path (arbitrary program)
	// yields a parse failure, not a panic.
	m := vm.New(vm.DefaultConfig())
	m.Register("host", isa.MustAssemble(`
		movi r0, 0
		movi r1, 0
		syscall
	`), 0x100000)
	if _, err := LeakViaDebug(m, "host", 100_000); err == nil {
		t.Error("leak parse succeeded on a host without the debug path")
	}
}
