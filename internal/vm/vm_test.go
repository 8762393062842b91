package vm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestExecHelloProgram(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble(`
		movi r0, 1       ; SysPutchar
		movi r1, 'h'
		syscall
		movi r1, 'i'
		syscall
		movi r0, 0       ; SysExit
		movi r1, 0
		syscall
		halt             ; unreachable
	`)
	m.Register("hello", mod, 0x100000)
	if err := m.Exec("hello", nil, 10000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != "hi" {
		t.Errorf("output = %q", got)
	}
	if m.ExitCode != 0 || m.Aborted {
		t.Errorf("exit=%d aborted=%v", m.ExitCode, m.Aborted)
	}
}

func TestArgumentPassing(t *testing.T) {
	m := New(DefaultConfig())
	// Echo the argument bytes (r1=addr, r2=len at entry).
	mod := isa.MustAssemble(`
	loop:
		cmpi r2, 0
		je done
		loadb r3, [r1]
		mov r4, r1
		mov r5, r2
		movi r0, 1
		mov r1, r3
		syscall
		mov r1, r4
		mov r2, r5
		addi r1, r1, 1
		subi r2, r2, 1
		jmp loop
	done:
		movi r0, 0
		movi r1, 0
		syscall
	`)
	m.Register("echo", mod, 0x100000)
	if err := m.Exec("echo", []byte("abc"), 100000); err != nil {
		t.Fatal(err)
	}
	if m.Output.String() != "abc" {
		t.Errorf("output = %q", m.Output.String())
	}
}

func TestPutint(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble(`
		movi r0, 2
		movi r1, 12345
		syscall
		movi r0, 0
		movi r1, 0
		syscall
	`)
	m.Register("p", mod, 0x100000)
	if err := m.Exec("p", nil, 1000); err != nil {
		t.Fatal(err)
	}
	if m.Output.String() != "12345\n" {
		t.Errorf("output = %q", m.Output.String())
	}
}

func TestSysExecChainsBinaries(t *testing.T) {
	m := New(DefaultConfig())
	first := isa.MustAssemble(`
		movi r0, 3         ; SysExec
		movi r1, name
		syscall
		halt               ; never reached: exec does not return
	.data
	name: .asciz "second"
	`)
	second := isa.MustAssemble(`
		movi r0, 1
		movi r1, '2'
		syscall
		movi r0, 0
		movi r1, 7
		syscall
	`)
	m.Register("first", first, 0x100000)
	m.Register("second", second, 0x400000)
	if err := m.Exec("first", nil, 10000); err != nil {
		t.Fatal(err)
	}
	if m.Output.String() != "2" {
		t.Errorf("output = %q", m.Output.String())
	}
	if len(m.ExecLog) != 1 || m.ExecLog[0] != "second" {
		t.Errorf("exec log = %v", m.ExecLog)
	}
	if m.ExitCode != 7 {
		t.Errorf("exit code = %d", m.ExitCode)
	}
}

func TestSysExecUnknownBinaryFaults(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble(`
		movi r0, 3
		movi r1, name
		syscall
	.data
	name: .asciz "ghost"
	`)
	m.Register("a", mod, 0x100000)
	if err := m.Exec("a", nil, 1000); err == nil {
		t.Error("exec of unregistered binary succeeded")
	}
}

func TestAbortSetsFlag(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble(`
		movi r0, 4
		movi r1, 0x57ac
		syscall
	`)
	m.Register("a", mod, 0x100000)
	if err := m.Exec("a", nil, 1000); err != nil {
		t.Fatal(err)
	}
	if !m.Aborted || m.ExitCode != AbortStackSmash {
		t.Errorf("aborted=%v code=%#x", m.Aborted, m.ExitCode)
	}
}

func TestASLRSlidesImages(t *testing.T) {
	mod := isa.MustAssemble("halt")
	bases := map[uint64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		cfg := DefaultConfig()
		cfg.ASLR = true
		cfg.ASLRSeed = seed
		m := New(cfg)
		m.Register("x", mod, 0x100000)
		img, err := m.Load("x")
		if err != nil {
			t.Fatal(err)
		}
		bases[img.Base] = true
		if img.Base < 0x100000 {
			t.Errorf("slide went below preferred base: %#x", img.Base)
		}
	}
	if len(bases) < 3 {
		t.Errorf("ASLR produced only %d distinct bases over 8 seeds", len(bases))
	}
}

func TestNoASLRIsDeterministic(t *testing.T) {
	mod := isa.MustAssemble("halt")
	m := New(DefaultConfig())
	m.Register("x", mod, 0x200000)
	img, err := m.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if img.Base != 0x200000 {
		t.Errorf("base = %#x without ASLR", img.Base)
	}
}

func TestCodePagesAreNotWritable(t *testing.T) {
	m := New(DefaultConfig())
	// Program tries to overwrite its own first instruction.
	mod := isa.MustAssemble(`
	_start:
		movi r1, _start
		movi r2, 0
		store [r1], r2
		halt
	`)
	m.Register("selfmod", mod, 0x100000)
	err := m.Exec("selfmod", nil, 1000)
	if err == nil {
		t.Error("self-modifying store to code page succeeded (W^X violated)")
	}
}

func TestStackOperations(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble(`
		movi r1, 111
		movi r2, 222
		push r1
		push r2
		pop r3
		pop r4
		movi r0, 0
		movi r1, 0
		syscall
	`)
	m.Register("s", mod, 0x100000)
	if err := m.Exec("s", nil, 1000); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Regs[3] != 222 || m.CPU.Regs[4] != 111 {
		t.Errorf("pops = %d, %d", m.CPU.Regs[3], m.CPU.Regs[4])
	}
	if m.CPU.Regs[isa.RegSP] != m.StackTop() {
		t.Error("stack pointer not balanced")
	}
}

func TestArgTooLarge(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.SetArg(make([]byte, ArgSize+1)); err == nil {
		t.Error("oversized argument accepted")
	}
}

func TestStartUnloadedBinary(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Start("nope"); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("Start of unloaded binary: %v", err)
	}
}

func TestSysExecAtNamedSymbol(t *testing.T) {
	m := New(DefaultConfig())
	first := isa.MustAssemble(`
		movi r0, 3
		movi r1, path
		syscall
		halt
	.data
	path: .asciz "second#alt_entry"
	`)
	second := isa.MustAssemble(`
	_start:
		movi r0, 1
		movi r1, 'A'
		syscall
		movi r0, 0
		movi r1, 0
		syscall
	alt_entry:
		movi r0, 1
		movi r1, 'B'
		syscall
		movi r0, 0
		movi r1, 0
		syscall
	`)
	m.Register("first", first, 0x100000)
	m.Register("second", second, 0x400000)
	if err := m.Exec("first", nil, 10000); err != nil {
		t.Fatal(err)
	}
	if m.Output.String() != "B" {
		t.Errorf("output = %q, want alt entry's B", m.Output.String())
	}
}

func TestSysExecUnknownSymbolFaults(t *testing.T) {
	m := New(DefaultConfig())
	first := isa.MustAssemble(`
		movi r0, 3
		movi r1, path
		syscall
	.data
	path: .asciz "second#ghost"
	`)
	m.Register("first", first, 0x100000)
	m.Register("second", isa.MustAssemble("halt"), 0x400000)
	if err := m.Exec("first", nil, 10000); err == nil {
		t.Error("exec at unknown symbol succeeded")
	}
}

func TestOnLoadHook(t *testing.T) {
	m := New(DefaultConfig())
	mod := isa.MustAssemble("halt\n.data\nmark: .word 0")
	m.Register("x", mod, 0x100000)
	var hookName string
	m.OnLoad = func(name string, img *isa.Image) {
		hookName = name
		_ = m.Mem.Write64(img.MustSymbol("mark"), 0xBEEF)
	}
	img, err := m.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if hookName != "x" {
		t.Errorf("hook saw name %q", hookName)
	}
	if v, _ := m.Mem.Read64(img.MustSymbol("mark")); v != 0xBEEF {
		t.Error("hook write did not land after mapping")
	}
}

func TestStackExecutableToggle(t *testing.T) {
	run := func(executable bool) error {
		cfg := DefaultConfig()
		cfg.StackExecutable = executable
		m := New(cfg)
		// Write a HALT instruction onto the stack and jump to it.
		mod := isa.MustAssemble(`
			subi sp, sp, 16
			movi r1, 1        ; HALT opcode byte
			storeb [sp], r1
			movi r2, 0
			storeb [sp+1], r2 ; remaining 15 bytes are already zero
			mov r3, sp
			jmpr r3
		`)
		m.Register("s", mod, 0x100000)
		return m.Exec("s", nil, 1000)
	}
	if err := run(true); err != nil {
		t.Errorf("executable stack rejected stack code: %v", err)
	}
	if err := run(false); err == nil {
		t.Error("DEP stack executed stack code")
	}
}

func TestImageAccessor(t *testing.T) {
	m := New(DefaultConfig())
	m.Register("x", isa.MustAssemble("halt"), 0x100000)
	if _, ok := m.Image("x"); ok {
		t.Error("Image reported unloaded binary")
	}
	if _, err := m.Load("x"); err != nil {
		t.Fatal(err)
	}
	if img, ok := m.Image("x"); !ok || img.Base != 0x100000 {
		t.Error("Image accessor wrong after load")
	}
}

func TestLoadUnregistered(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.Load("ghost"); err == nil {
		t.Error("loading unregistered binary succeeded")
	}
}
