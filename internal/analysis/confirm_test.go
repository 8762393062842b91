package analysis

import (
	"context"
	"strings"
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
	seeds := 34
	if testing.Short() {
		seeds = 6
	}
	n := seeds * progen.NumGadgetKinds
	results, err := SoakConfirm(context.Background(), 1, n, 0, cfg, agreementBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range results {
		if !c.Agrees() {
			t.Errorf("disagreement: %v", c)
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

// TestConfirmRejectsProbeRingOverflow: a run that emits more covert-probe
// events than the confirmation ring holds is an error, never a verdict
// drawn from the events that survived the wrap.
func TestConfirmRejectsProbeRingOverflow(t *testing.T) {
	img, err := isa.MustAssemble(`
		movi r1, 0x40000
		movi r2, 1100
	loop:
		loadb r3, [r1]
		subi r2, r2, 1
		cmpi r2, 0
		jne loop
		halt
	`).Link(progen.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	p := progen.Program{
		Code:     img.Code,
		NumInstr: len(img.Code) / isa.InstrSize,
		CodeBase: progen.CodeBase,
		Data:     make([]byte, mem.PageSize),
		DataBase: progen.DataBase,
		StackTop: progen.MemSize - mem.PageSize,
		MemSize:  progen.MemSize,
	}
	meta := progen.GadgetMeta{SecretAddr: progen.DataBase + 8, ProbeBase: progen.DataBase, ProbeStride: 1}
	_, err = ConfirmGadget(p, meta, cpu.DefaultConfig(), agreementBudget)
	if err == nil || !strings.Contains(err.Error(), "probe ring") {
		t.Fatalf("ConfirmGadget = %v, want a probe ring overflow error", err)
	}
}
