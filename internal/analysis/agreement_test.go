package analysis

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/progen"
)

const agreementBudget = 200_000

// TestStaticDynamicAgreement is the subsystem's headline correctness
// claim: over the labeled gadget corpus, the static analyzer's verdict,
// the generator's ground-truth label, and the simulator's observed
// cache state must all coincide — every statically flagged leak really
// leaks with defenses off, and every mitigated variant really does
// not. The corpus is >= 300 seeded programs (34 seeds x 12 kinds,
// spanning the v1, v2-injection, and v4-store-bypass families plus
// their mitigations), checked in parallel through the sched pool so
// the run is also race-exercised.
func TestStaticDynamicAgreement(t *testing.T) {
	cfg := cpu.DefaultConfig()
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
	t.Logf("%d programs, zero disagreements", n)
}

// TestAgreementVerdictShape pins the per-kind static verdicts, not just
// the leak bit: the fenced and padded variants must be reported as
// mitigated access sites (the analyzer saw the gadget and proved the
// transmit cut), and the no-transmit variant as such.
func TestAgreementVerdictShape(t *testing.T) {
	expect := map[progen.GadgetKind]Verdict{
		GadgetKindOrDie(t, progen.GadgetLeak):       VerdictLeak,
		GadgetKindOrDie(t, progen.GadgetFenced):     VerdictMitigated,
		GadgetKindOrDie(t, progen.GadgetPadded):     VerdictMitigated,
		GadgetKindOrDie(t, progen.GadgetNoTransmit): VerdictNoTransmit,
	}
	for kind, want := range expect {
		p, meta := progen.GenerateGadget(7, kind)
		rep := AnalyzeGadget(p, meta)
		if len(rep.Findings) == 0 {
			t.Fatalf("%s: no findings", kind)
		}
		found := false
		for _, f := range rep.Findings {
			if f.AccessPC == meta.AccessPC {
				found = true
				if f.Verdict != want {
					t.Errorf("%s: access %#x verdict = %s, want %s", kind, f.AccessPC, f.Verdict, want)
				}
				if f.GuardPC != meta.GuardPC {
					t.Errorf("%s: guard = %#x, want %#x", kind, f.GuardPC, meta.GuardPC)
				}
				if want == VerdictLeak {
					if f.TransmitPC != meta.TransmitPC {
						t.Errorf("%s: transmit = %#x, want %#x", kind, f.TransmitPC, meta.TransmitPC)
					}
					if len(f.Witness) == 0 {
						t.Errorf("%s: leak finding carries no witness path", kind)
					} else {
						if f.Witness[0] != meta.GuardPC || f.Witness[len(f.Witness)-1] != meta.TransmitPC {
							t.Errorf("%s: witness %#x does not span guard..transmit", kind, f.Witness)
						}
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no finding at the known access site %#x; findings: %+v", kind, meta.AccessPC, rep.Findings)
		}
	}
	// The sanitized, resolved-bound, masked, SLH-hardened, and fenced
	// store-bypass variants must produce no leak finding at the gadget
	// at all: no attacker taint reaches the access (resp. no window
	// opens, resp. the bypass window is drained).
	for _, kind := range []progen.GadgetKind{
		progen.GadgetSanitized, progen.GadgetResolvedBound,
		progen.GadgetMaskedIndex, progen.GadgetSLH, progen.GadgetSSBFenced,
	} {
		p, meta := progen.GenerateGadget(7, kind)
		rep := AnalyzeGadget(p, meta)
		for _, f := range rep.Findings {
			if f.AccessPC == meta.AccessPC && f.Verdict == VerdictLeak {
				t.Errorf("%s: unexpected leak finding at %#x", kind, f.AccessPC)
			}
		}
		if dyn, err := new(gadgetMachine).leaks(p, meta, cpu.DefaultConfig(), agreementBudget); err != nil || dyn {
			t.Errorf("%s: dynamic leak=%v err=%v, want no leak", kind, dyn, err)
		}
	}
}

// TestAgreementV2V4FindingShape pins the new finding kinds: the
// v2-injection program is flagged at its indirect call site with
// FindingKindV2 (the gadget body is statically unreachable — the BTB,
// not the CFG, steers execution there), and the store-bypass program
// carries a FindingKindV4 leak spanning the sanitizing store, the
// bypassing load, and the probe transmit. The retpolined dispatch must
// carry no v2 finding at all.
func TestAgreementV2V4FindingShape(t *testing.T) {
	p, meta := progen.GenerateGadget(7, progen.GadgetV2Inject)
	rep := AnalyzeGadget(p, meta)
	found := false
	for _, f := range rep.Findings {
		if f.Kind == FindingKindV2 {
			found = true
			if f.GuardPC != meta.GuardPC || f.AccessPC != meta.GuardPC {
				t.Errorf("v2 finding at %#x/%#x, want the indirect call at %#x",
					f.GuardPC, f.AccessPC, meta.GuardPC)
			}
			if f.Verdict != VerdictLeak {
				t.Errorf("v2 finding verdict = %s, want leak", f.Verdict)
			}
		}
		if f.AccessPC == meta.AccessPC && f.Kind == "" {
			t.Errorf("gadget body at %#x reached by the v1 pass — it should be statically unreachable", f.AccessPC)
		}
	}
	if !found {
		t.Errorf("v2-inject: no %s finding; findings: %+v", FindingKindV2, rep.Findings)
	}

	p, meta = progen.GenerateGadget(7, progen.GadgetV2Retpoline)
	rep = AnalyzeGadget(p, meta)
	for _, f := range rep.Findings {
		if f.Kind == FindingKindV2 {
			t.Errorf("retpolined dispatch still carries a v2 finding at %#x", f.GuardPC)
		}
	}

	p, meta = progen.GenerateGadget(7, progen.GadgetSSB)
	rep = AnalyzeGadget(p, meta)
	found = false
	for _, f := range rep.Findings {
		if f.Kind != FindingKindV4 {
			continue
		}
		found = true
		if f.GuardPC != meta.GuardPC {
			t.Errorf("v4 guard = %#x, want the sanitizing store at %#x", f.GuardPC, meta.GuardPC)
		}
		if f.AccessPC != meta.AccessPC || f.TransmitPC != meta.TransmitPC {
			t.Errorf("v4 access/transmit = %#x/%#x, want %#x/%#x",
				f.AccessPC, f.TransmitPC, meta.AccessPC, meta.TransmitPC)
		}
		if f.Verdict != VerdictLeak {
			t.Errorf("v4 verdict = %s, want leak", f.Verdict)
		}
		if len(f.Witness) == 0 {
			t.Error("v4 leak finding carries no witness path")
		}
	}
	if !found {
		t.Errorf("ssb: no %s finding; findings: %+v", FindingKindV4, rep.Findings)
	}
}

// GadgetKindOrDie is an identity helper that keeps the map literal
// above readable while asserting kind validity.
func GadgetKindOrDie(t *testing.T, k progen.GadgetKind) progen.GadgetKind {
	t.Helper()
	if int(k) >= progen.NumGadgetKinds {
		t.Fatalf("bad kind %d", k)
	}
	return k
}

// TestAgreementUnderDefenses: with speculation disabled the leak kind
// must stop leaking dynamically — the static verdict intentionally
// models the undefended core, so this asserts the oracle side only.
func TestAgreementUnderDefenses(t *testing.T) {
	p, meta := progen.GenerateGadget(3, progen.GadgetLeak)
	for _, cfg := range []cpu.Config{
		{SpecWindow: 64, MispredictPenalty: 24}, // speculation off
		{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, FenceConditional: true},
		{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, SquashCacheEffects: true},
	} {
		leak, err := new(gadgetMachine).leaks(p, meta, cfg, agreementBudget)
		if err != nil {
			t.Fatal(err)
		}
		if leak {
			t.Errorf("config %+v: gadget leaked despite the defense", cfg)
		}
	}
	// Sanity: same program does leak on the undefended core.
	leak, err := new(gadgetMachine).leaks(p, meta, cpu.DefaultConfig(), agreementBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !leak {
		t.Fatal("leak kind did not leak on the undefended core")
	}
}

// TestCheckAgreementJudge: cfg.ForceWrongPath selects the dynamic judge.
// Under InvisiSpec-style squashing (SquashCacheEffects) the trained
// cache oracle finds the leak gadget's probe line cold at halt, while
// the forced harness still observes the transient covert probe — so the
// same program reads no dynamic leak without the flag and a leak with it.
func TestCheckAgreementJudge(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.SquashCacheEffects = true
	for _, force := range []bool{false, true} {
		cfg.ForceWrongPath = force
		a, err := new(gadgetMachine).checkAgreement(7, progen.GadgetLeak, cfg, agreementBudget)
		if err != nil {
			t.Fatalf("ForceWrongPath=%v: %v", force, err)
		}
		if a.DynamicLeak != force {
			t.Errorf("ForceWrongPath=%v: %v, want dynamic=%v", force, a, force)
		}
		if !a.Expect || !a.StaticLeak {
			t.Errorf("ForceWrongPath=%v: %v, want expect and static leak", force, a)
		}
	}
}

// TestAgreementString pins the agreement line speclint prints per
// program after "ok " or "DISAGREEMENT ".
func TestAgreementString(t *testing.T) {
	for _, tc := range []struct {
		a      Agreement
		agrees bool
		want   string
	}{
		{Agreement{Seed: 7, Kind: progen.GadgetLeak, Expect: true, StaticLeak: true, DynamicLeak: true}, true,
			"seed=7 kind=leak expect=true static=true dynamic=true"},
		{Agreement{Seed: -3, Kind: progen.GadgetFenced, DynamicLeak: true}, false,
			"seed=-3 kind=fenced expect=false static=false dynamic=true"},
	} {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got := tc.a.Agrees(); got != tc.agrees {
			t.Errorf("%v: Agrees() = %v, want %v", tc.a, got, tc.agrees)
		}
	}
}
