package analysis

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
)

// TestConfirmAgreement is the SpecFuzz-mode counterpart of
// TestStaticDynamicAgreement: over the labeled corpus, the forced-
// speculation confirmation (no predictor training, both directions of
// every in-flight branch executed) must confirm exactly the programs
// that really leak — zero disagreement with the ground-truth labels and
// with the static verdicts.
func TestConfirmAgreement(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.ForceWrongPath = true
	seeds := 34
	if testing.Short() {
		seeds = 6
	}
	n := seeds * progen.NumGadgetKinds
	results, err := SoakAgreement(context.Background(), 1, n, 0, cfg, agreementBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range results {
		if !a.Agrees() {
			t.Errorf("disagreement: %v", a)
		}
	}
	t.Logf("%d programs, zero confirm disagreements", n)
}

// TestConfirmWitnessShape pins the witness a confirmed leak carries:
// the attacker input, the first planted secret, and the probe line that
// secret selects, with the transmitting PC inside the image.
func TestConfirmWitnessShape(t *testing.T) {
	p, meta := progen.GenerateGadget(7, progen.GadgetLeak)
	w, err := ConfirmGadget(p, meta, cpu.DefaultConfig(), agreementBudget)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("leak gadget not confirmed")
	}
	if w.Input != meta.TaintVal {
		t.Errorf("witness input = %#x, want %#x", w.Input, meta.TaintVal)
	}
	if w.Secret != gadgetSecrets[0] {
		t.Errorf("witness secret = %#x, want %#x", w.Secret, gadgetSecrets[0])
	}
	if want := meta.ProbeBase + uint64(w.Secret)*meta.ProbeStride; w.ProbeAddr != want {
		t.Errorf("witness probe addr = %#x, want %#x", w.ProbeAddr, want)
	}
	if w.TransmitPC < p.CodeBase || w.TransmitPC >= p.CodeBase+uint64(len(p.Code)) {
		t.Errorf("witness transmit PC %#x outside the image", w.TransmitPC)
	}
}

// TestConfirmRespectsDefenses: with conditional-branch fencing the
// forced mode must not fire (the hook defers to the defense), so the
// leak gadget stays unconfirmed.
func TestConfirmRespectsDefenses(t *testing.T) {
	p, meta := progen.GenerateGadget(3, progen.GadgetLeak)
	cfg := cpu.DefaultConfig()
	cfg.FenceConditional = true
	w, err := ConfirmGadget(p, meta, cfg, agreementBudget)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("gadget confirmed despite conditional-branch fencing: %+v", w)
	}
}

// TestConfirmFindingsUpgrade: applying a witness upgrades exactly the
// leak verdicts, attaches the repro, and rescores.
func TestConfirmFindingsUpgrade(t *testing.T) {
	fs := []RankedFinding{
		{Image: "a", Finding: Finding{AccessPC: 0x10, Verdict: VerdictLeak, AttackerIndex: true}},
		{Image: "a", Finding: Finding{AccessPC: 0x20, Verdict: VerdictMitigated}},
	}
	for i := range fs {
		fs[i].Depth = -1
		fs[i].Score = ScoreFinding(fs[i].Finding, fs[i].Span, fs[i].Depth)
	}
	w := &ConfirmWitness{Input: 1, Secret: 0x47, ProbeAddr: 0x3000}
	ConfirmFindings(fs, w)
	if fs[0].Verdict != VerdictConfirmed || fs[0].Repro != w {
		t.Errorf("leak not upgraded: %+v", fs[0])
	}
	if got, want := fs[0].Score, ScoreFinding(fs[0].Finding, 0, -1); got != want {
		t.Errorf("upgraded score = %d, want %d", got, want)
	}
	if fs[1].Verdict != VerdictMitigated || fs[1].Repro != nil {
		t.Errorf("mitigated finding touched by upgrade: %+v", fs[1])
	}
	ConfirmFindings(fs, nil) // no-op
	if fs[1].Verdict != VerdictMitigated {
		t.Error("nil witness mutated findings")
	}
}

// gadgetProgram links a hand-written program into the generated-gadget
// memory layout: code at CodeBase, one data page at DataBase.
func gadgetProgram(t testing.TB, src string) progen.Program {
	img, err := isa.MustAssemble(src).Link(progen.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	return progen.Program{
		Code:     img.Code,
		NumInstr: len(img.Code) / isa.InstrSize,
		CodeBase: progen.CodeBase,
		Data:     make([]byte, mem.PageSize),
		DataBase: progen.DataBase,
		StackTop: progen.MemSize - mem.PageSize,
		MemSize:  progen.MemSize,
	}
}

// probeFlood emits more covert-probe events than the confirmation ring
// holds.
const probeFlood = `
	movi r1, 0x40000
	movi r2, 1100
loop:
	loadb r3, [r1]
	subi r2, r2, 1
	cmpi r2, 0
	jne loop
	halt
`

// floodMeta puts the probe array over the flood's load address.
var floodMeta = progen.GadgetMeta{SecretAddr: progen.DataBase + 8, ProbeBase: progen.DataBase, ProbeStride: 1}

// TestConfirmRejectsProbeRingOverflow: a run that emits more covert-probe
// events than the confirmation ring holds is an error, never a verdict
// drawn from the events that survived the wrap.
func TestConfirmRejectsProbeRingOverflow(t *testing.T) {
	_, err := ConfirmGadget(gadgetProgram(t, probeFlood), floodMeta, cpu.DefaultConfig(), agreementBudget)
	if !errors.Is(err, ErrProbeRingOverflow) {
		t.Fatalf("ConfirmGadget = %v, want ErrProbeRingOverflow", err)
	}
}

// TestReusedMachineAfterFailure: every way a gadget run fails surfaces as
// a matchable error, and a machine whose last run overflowed the probe
// ring, faulted or ran out of budget gives the next gadget exactly the
// verdict a fresh ConfirmGadget gives it.
func TestReusedMachineAfterFailure(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, tc := range []struct {
		name string
		src  string
		want func(error) bool
	}{
		{"overflow", probeFlood, func(err error) bool { return errors.Is(err, ErrProbeRingOverflow) }},
		{"fault", "movi r1, 0x80000\nstore [r1], r1\nhalt", func(err error) bool {
			var f *cpu.Fault
			return errors.As(err, &f)
		}},
		{"budget", "spin: jmp spin", func(err error) bool { return errors.Is(err, ErrGadgetBudget) }},
	} {
		bad := gadgetProgram(t, tc.src)
		for _, kind := range progen.GadgetKinds() {
			p, meta := progen.GenerateGadget(5, kind)
			want, err := ConfirmGadget(p, meta, cfg, agreementBudget)
			if err != nil {
				t.Fatal(err)
			}
			var g gadgetMachine
			if _, err := g.confirm(bad, floodMeta, cfg, 10_000); !tc.want(err) {
				t.Fatalf("%s: failing run returned %v", tc.name, err)
			}
			got, err := g.confirm(p, meta, cfg, agreementBudget)
			if err != nil {
				t.Fatalf("after %s, kind %s: %v", tc.name, kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after %s, kind %s: reused witness %+v, fresh %+v", tc.name, kind, got, want)
			}
		}
	}
}

// TestReusedConfirmAllocs is the reuse gate: once a machine has confirmed
// a few gadgets, confirming further ones resets memory, core, recorder
// and event buffer in place, so all that is left to allocate is the
// compiled blocks and the witness.
func TestReusedConfirmAllocs(t *testing.T) {
	const bound = 16 << 10
	type gadget struct {
		p    progen.Program
		meta progen.GadgetMeta
	}
	var warm, measured []gadget
	for i, kind := range progen.GadgetKinds() {
		p, meta := progen.GenerateGadget(int64(i), kind)
		warm = append(warm, gadget{p, meta})
		p, meta = progen.GenerateGadget(int64(100+i), kind)
		measured = append(measured, gadget{p, meta})
	}
	cfg := cpu.DefaultConfig()
	var g gadgetMachine
	for _, gd := range warm {
		if _, err := g.confirm(gd.p, gd.meta, cfg, agreementBudget); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, gd := range measured {
		if _, err := g.confirm(gd.p, gd.meta, cfg, agreementBudget); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(measured))
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= bound {
		t.Errorf("a reused confirmation allocates %d bytes, want under %d", per, bound)
	}
	t.Logf("per reused confirmation: %d bytes, %d objects",
		(after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n)
}

// BenchmarkConfirmGadget measures one two-secret confirmation on fresh
// machines (ConfirmGadget) and on one machine reset in place, the way
// the scan and soak workers run it.
func BenchmarkConfirmGadget(b *testing.B) {
	p, meta := progen.GenerateGadget(7, progen.GadgetLeak)
	cfg := cpu.DefaultConfig()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ConfirmGadget(p, meta, cfg, agreementBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var g gadgetMachine
		if _, err := g.confirm(p, meta, cfg, agreementBudget); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.confirm(p, meta, cfg, agreementBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
}
