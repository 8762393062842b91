package debug

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

const program = `
.entry main
helper:
	addi r2, r2, 1
	ret
main:
	movi r1, 3
loop:
	call helper
	subi r1, r1, 1
	cmpi r1, 0
	jne loop
	halt
`

// attach loads src on a fresh machine whose core records into rec (nil
// for none) and attaches a debugger to it.
func attach(t *testing.T, src string, rec *telemetry.Recorder) (*vm.Machine, *Debugger, map[string]uint64) {
	t.Helper()
	cfg := vm.DefaultConfig()
	cfg.Telemetry = rec
	m := vm.New(cfg)
	m.Register("p", isa.MustAssemble(src), 0x100000)
	img, err := m.Load("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("p"); err != nil {
		t.Fatal(err)
	}
	d := Attach(m.CPU)
	d.AddSymbols(img.Symbols)
	return m, d, img.Symbols
}

// retirements returns the retire events rec kept, oldest first.
func retirements(rec *telemetry.Recorder) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindRetire {
			out = append(out, ev)
		}
	}
	return out
}

// TestTraceRecordsRetirements: a debugged run's retirements reach the
// recorder in order, with monotonic cycles, ending at the HALT.
func TestTraceRecordsRetirements(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	m, d, _ := attach(t, program, rec)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	tr := retirements(rec)
	if uint64(len(tr)) != m.CPU.Instret() {
		t.Fatalf("recorded %d retirements, core retired %d", len(tr), m.CPU.Instret())
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Seq <= tr[i-1].Seq {
			t.Fatal("trace sequence broken")
		}
		if tr[i].Cycle < tr[i-1].Cycle {
			t.Fatal("trace cycles not monotonic")
		}
	}
	if op := isa.Op(tr[len(tr)-1].Val); op != isa.HALT {
		t.Errorf("last traced op = %s", op)
	}
}

// TestTraceRingBufferKeepsTail: the timeline DumpEvents renders is the
// recorder's newest events, ending at the HALT.
func TestTraceRingBufferKeepsTail(t *testing.T) {
	rec := telemetry.NewRecorder(4)
	_, d, _ := attach(t, program, rec)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	tr := rec.Events()
	if len(tr) != 4 {
		t.Fatalf("ring kept %d", len(tr))
	}
	if last := tr[3]; last.Kind != telemetry.KindRetire || isa.Op(last.Val) != isa.HALT {
		t.Error("ring did not keep the most recent events")
	}
	var buf bytes.Buffer
	d.DumpEvents(&buf, rec, 2)
	if out := buf.String(); !strings.Contains(out, "events (last 2 of") || !strings.Contains(out, "op=halt") {
		t.Errorf("timeline tail:\n%s", out)
	}
}

func TestBreakpointAtSymbol(t *testing.T) {
	m, d, syms := attach(t, program, nil)
	if err := d.BreakSymbol("helper"); err != nil {
		t.Fatal(err)
	}
	err := d.Run(1000)
	var br *ErrBreak
	if !errors.As(err, &br) {
		t.Fatalf("expected breakpoint, got %v", err)
	}
	if m.CPU.PC != syms["helper"] {
		t.Errorf("stopped at %#x, want helper %#x", m.CPU.PC, syms["helper"])
	}
	if br.Seq != m.CPU.Instret()-1 {
		t.Errorf("break seq %d, want the core's last retirement %d", br.Seq, m.CPU.Instret()-1)
	}
	// Resume: hits it twice more, then halts.
	hits := 1
	for {
		err = d.Run(1000)
		if errors.As(err, &br) {
			hits++
			continue
		}
		break
	}
	if err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Errorf("breakpoint hit %d times, want 3", hits)
	}
	if !m.CPU.Halted() {
		t.Error("program did not finish after resumes")
	}
}

func TestClearBreak(t *testing.T) {
	_, d, syms := attach(t, program, nil)
	d.Break(syms["helper"])
	d.ClearBreak(syms["helper"])
	if err := d.Run(1000); err != nil {
		t.Fatalf("cleared breakpoint still fired: %v", err)
	}
}

func TestBreakUnknownSymbol(t *testing.T) {
	_, d, _ := attach(t, program, nil)
	if err := d.BreakSymbol("nope"); err == nil {
		t.Error("unknown symbol accepted")
	}
}

func TestCallStackTracksNesting(t *testing.T) {
	src := `
.entry main
inner:
	ret
outer:
	call inner
	ret
main:
	call outer
	halt
`
	_, d, syms := attach(t, src, nil)
	if err := d.BreakSymbol("inner"); err != nil {
		t.Fatal(err)
	}
	err := d.Run(1000)
	var br *ErrBreak
	if !errors.As(err, &br) {
		t.Fatalf("no break: %v", err)
	}
	st := d.CallStack()
	if len(st) != 2 {
		t.Fatalf("stack depth %d, want 2", len(st))
	}
	if st[0].TargetPC != syms["outer"] || st[1].TargetPC != syms["inner"] {
		t.Errorf("stack = %+v", st)
	}
	// Run to completion: stack unwinds.
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(d.CallStack()) != 0 {
		t.Errorf("stack not unwound: %+v", d.CallStack())
	}
}

func TestROPLeavesDanglingFrames(t *testing.T) {
	// A smashed return address breaks call/return pairing: the frame is
	// never popped — the analyst-visible hijack fingerprint.
	src := `
.entry main
gadget:
	halt
f:
	movi r1, gadget
	store [sp], r1
	ret
main:
	call f
	halt
`
	_, d, _ := attach(t, src, nil)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(d.CallStack()) != 1 {
		t.Errorf("hijacked return should leave a dangling frame, stack=%+v", d.CallStack())
	}
}

func TestSymbolize(t *testing.T) {
	_, d, syms := attach(t, program, nil)
	if got := d.Symbolize(syms["helper"]); got != "helper" {
		t.Errorf("Symbolize(helper) = %q", got)
	}
	if got := d.Symbolize(syms["helper"] + 16); !strings.Contains(got, "helper+0x10") {
		t.Errorf("offset form = %q", got)
	}
	if got := d.Symbolize(4); !strings.HasPrefix(got, "0x") {
		t.Errorf("below all symbols = %q", got)
	}
}

// TestSymbolizeAliasesDeterministic: two names on one address (the math
// host's wl_gcd and its loop label wl_gcd_loop) symbolise the same way on
// every debugger, whatever order the symbol map iterates in.
func TestSymbolizeAliasesDeterministic(t *testing.T) {
	m, _, _ := attach(t, program, nil)
	syms := map[string]uint64{
		"wl_math_loop": 0x100600,
		"wl_gcd_loop":  0x1007d0,
		"wl_gcd":       0x1007d0,
		"wl_gcd_done":  0x100830,
	}
	for i := 0; i < 256; i++ {
		d := Attach(m.CPU)
		d.AddSymbols(syms)
		if got := d.Symbolize(0x100800); got != "wl_gcd+0x30" {
			t.Fatalf("debugger %d: Symbolize = %q, want wl_gcd+0x30", i, got)
		}
	}
}

func TestDumpState(t *testing.T) {
	_, d, _ := attach(t, program, nil)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.DumpState(&buf)
	out := buf.String()
	for _, want := range []string{"pc  =", "sp  =", "call stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestFindRets: the recorder holds the RET retirements an analyst looks
// for, one per call to helper.
func TestFindRets(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	_, d, _ := attach(t, program, rec)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	rets := 0
	for _, ev := range retirements(rec) {
		if isa.Op(ev.Val) == isa.RET {
			rets++
		}
	}
	if rets != 3 {
		t.Errorf("found %d rets, want 3", rets)
	}
}

func TestStringSummary(t *testing.T) {
	_, d, _ := attach(t, program, nil)
	if s := d.String(); !strings.Contains(s, "debug{") {
		t.Errorf("summary = %q", s)
	}
}

// TestWatchpointCatchesOverflow arms a watch on the saved return
// address and catches the smashing store red-handed, with the offending
// PC symbolised — the analyst workflow for diagnosing the ROP injection.
func TestWatchpointCatchesOverflow(t *testing.T) {
	src := `
.entry main
smash:
	movi r1, 0xBAD
	store [sp], r1       ; overwrite own return address
	movi r1, sp_ok
	store [sp], r1       ; then point it somewhere harmless
	ret
main:
	call smash
sp_ok:
	halt
`
	m, d, syms := attach(t, src, nil)
	// Watch the word just below the initial SP: the frame smash lands
	// there when main's call pushes and smash stores through sp.
	spTop := m.CPU.Regs[15]
	d.WatchWrites("saved-ret", spTop-8, 8)
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	hits := d.WatchHits()
	if len(hits) < 2 {
		t.Fatalf("watch recorded %d hits, want the smash stores (>=2: call push also lands)", len(hits))
	}
	// At least one hit must come from inside `smash`.
	found := false
	for _, h := range hits {
		if h.PC >= syms["smash"] && h.PC < syms["main"] {
			found = true
		}
	}
	if !found {
		t.Errorf("no hit attributed to the smashing function: %+v", hits)
	}
	rep := d.ReportWatches()
	if !strings.Contains(rep, "saved-ret") || !strings.Contains(rep, "smash") {
		t.Errorf("report not symbolised:\n%s", rep)
	}
}

func TestClearWatches(t *testing.T) {
	m, d, _ := attach(t, program, nil)
	d.WatchWrites("x", 0, 1<<20)
	d.ClearWatches()
	if err := d.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(d.WatchHits()) != 0 {
		t.Error("cleared watch still recorded hits")
	}
	if m.Mem.OnWrite != nil {
		t.Error("hook not removed")
	}
}

func TestNoWatchHitsReport(t *testing.T) {
	_, d, _ := attach(t, program, nil)
	if !strings.Contains(d.ReportWatches(), "no watchpoint hits") {
		t.Error("empty report wrong")
	}
}
