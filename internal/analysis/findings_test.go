package analysis

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/progen"
)

// scanFixture builds a small mixed corpus: one labeled leak gadget
// (attack, with confirmation), one labeled fenced gadget (benign), and
// one unlabeled copy of the leak program swept under the uninit-secret
// policy standing in for a host image.
func scanFixture(t *testing.T) []ScanImage {
	t.Helper()
	leak, leakMeta := progen.GenerateGadget(7, progen.GadgetLeak)
	fenced, fencedMeta := progen.GenerateGadget(7, progen.GadgetFenced)
	img := func(p progen.Program) *isa.Image {
		return &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code}
	}
	return []ScanImage{
		{
			Name: "gadget/leak", Img: img(leak),
			Cfg:    Config{TaintedRegs: []uint8{leakMeta.TaintReg}},
			Attack: true,
			Confirm: &ConfirmSpec{
				Prog: leak, Meta: leakMeta, CPU: cpu.DefaultConfig(), MaxInstr: agreementBudget,
			},
		},
		{
			Name: "gadget/fenced", Img: img(fenced),
			Cfg: Config{TaintedRegs: []uint8{fencedMeta.TaintReg}},
		},
		{
			Name: "host/unlabeled", Img: img(leak),
			Cfg: Config{UninitSecret: true},
		},
	}
}

// TestScanCorpusShape: the fixture scan produces a valid, gate-clean
// report with the confirmed planted gadget on top and per-image
// summaries consistent with the findings.
func TestScanCorpusShape(t *testing.T) {
	rep, err := ScanCorpus(context.Background(), PolicyUninitSecret, scanFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("scan report invalid: %v", err)
	}
	if len(rep.Images) != 3 || len(rep.Findings) == 0 {
		t.Fatalf("unexpected shape: %d images, %d findings", len(rep.Images), len(rep.Findings))
	}
	top := rep.Findings[0]
	if top.Image != "gadget/leak" || top.Verdict != VerdictConfirmed || top.Repro == nil {
		t.Errorf("top finding is not the confirmed planted leak: %+v", top)
	}
	if !top.AttackerIndex {
		t.Errorf("planted leak lost its attacker-index bit: %+v", top)
	}
	if err := rep.GateRanking(); err != nil {
		t.Errorf("gate failed on the fixture: %v", err)
	}
	// The unlabeled sweep must still flag candidate sites — the whole
	// point of the uninit-secret policy — but below the planted gadget.
	hostFindings := 0
	for _, f := range rep.Findings {
		if f.Image == "host/unlabeled" {
			hostFindings++
			if f.AttackerIndex {
				t.Errorf("unlabeled image produced an attacker-index finding: %+v", f)
			}
			if f.Score >= top.Score {
				t.Errorf("benign finding outranks the planted gadget: %+v", f)
			}
		}
	}
	if hostFindings == 0 {
		t.Error("uninit-secret sweep found nothing in the unlabeled image")
	}
}

// TestScanCorpusWorkerInvariant: identical reports at 1, 4, and 8
// workers — the sharding satellite's core invariant, checked at the
// library layer (the CLI test checks the bytes). The sha_1 host has
// many roots, so its tasks share one decode across workers.
func TestScanCorpusWorkerInvariant(t *testing.T) {
	images := append(scanFixture(t), ScanImage{Name: "host/sha_1", Img: linkHost(t, "sha_1"), Cfg: Config{UninitSecret: true}})
	base, err := ScanCorpus(context.Background(), PolicyUninitSecret, images, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		rep, err := ScanCorpus(context.Background(), PolicyUninitSecret, images, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rep) {
			t.Errorf("report differs between workers=1 and workers=%d", w)
		}
	}
}

// TestFindingsEncodeDecodeRoundTrip: canonical bytes survive the strict
// decoder and re-encode identically.
func TestFindingsEncodeDecodeRoundTrip(t *testing.T) {
	rep, err := ScanCorpus(context.Background(), PolicyUninitSecret, scanFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeFindings(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeFindings(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := EncodeFindings(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("re-encoded report differs from the original bytes")
	}
}

// TestDecodeFindingsRejects: the strict decoder refuses malformed and
// tampered documents with attributable errors.
func TestDecodeFindingsRejects(t *testing.T) {
	rep, err := ScanCorpus(context.Background(), PolicyUninitSecret, scanFixture(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeFindings(rep)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"not-json", "{"},
		{"wrong-schema", `{"schema":"speclint/findings/v1","policy":"labeled","images":null,"findings":null}`},
		{"bad-policy", `{"schema":"speclint/findings/v2","policy":"wat","images":null,"findings":null}`},
		{"unknown-field", `{"schema":"speclint/findings/v2","policy":"labeled","images":null,"findings":null,"extra":1}`},
		{"trailing", `{"schema":"speclint/findings/v2","policy":"labeled","images":null,"findings":null}{}`},
		{"tampered-score", strings.Replace(string(good), `"score": `, `"score": 9`, 1)},
	}
	for _, tc := range cases {
		if _, err := DecodeFindings([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "analysis:") {
			t.Errorf("%s: error lacks package prefix: %v", tc.name, err)
		}
	}
}

// TestGateRankingFails: a benign finding outscoring an attack image's
// best, or an attack image with nothing flagged, trips the gate.
func TestGateRankingFails(t *testing.T) {
	mk := func(img string, score int) RankedFinding {
		return RankedFinding{Image: img, Score: score}
	}
	r := &FindingsReport{
		Schema: FindingsSchema,
		Policy: PolicyLabeled,
		Images: []ImageSummary{
			{Name: "attack", Attack: true, Findings: 1},
			{Name: "benign", Findings: 1},
		},
		Findings: []RankedFinding{mk("benign", 500), mk("attack", 400)},
	}
	if err := r.GateRanking(); err == nil {
		t.Error("outranked attack image passed the gate")
	}
	r.Findings = []RankedFinding{mk("benign", 300)}
	if err := r.GateRanking(); err == nil {
		t.Error("attack image without findings passed the gate")
	}
	r.Findings = []RankedFinding{mk("attack", 700), mk("benign", 300)}
	if err := r.GateRanking(); err != nil {
		t.Errorf("clean ranking tripped the gate: %v", err)
	}
}

// TestScoreFindingAxes pins the ranking heuristics' order: confirmed >
// leak > mitigated > no-transmit, attacker control dominates locality,
// and shorter spans / shallower depths never lower a score.
func TestScoreFindingAxes(t *testing.T) {
	leak := Finding{Verdict: VerdictLeak}
	if !(ScoreFinding(Finding{Verdict: VerdictConfirmed}, 0, -1) > ScoreFinding(leak, 0, -1)) {
		t.Error("confirmed does not outrank leak")
	}
	if !(ScoreFinding(leak, 0, -1) > ScoreFinding(Finding{Verdict: VerdictMitigated}, 0, -1)) {
		t.Error("leak does not outrank mitigated")
	}
	if !(ScoreFinding(Finding{Verdict: VerdictMitigated}, 0, -1) > ScoreFinding(Finding{Verdict: VerdictNoTransmit}, 0, -1)) {
		t.Error("mitigated does not outrank no-transmit")
	}
	atk := leak
	atk.AttackerIndex = true
	if !(ScoreFinding(atk, 63, 31) > ScoreFinding(leak, 1, 0)) {
		t.Error("attacker control does not dominate locality bonuses")
	}
	if ScoreFinding(leak, 1, 0) < ScoreFinding(leak, 63, 31) {
		t.Error("tighter locality lowered the score")
	}
	if ScoreFinding(leak, 0, -1) > ScoreFinding(leak, 0, 0) {
		t.Error("unreachable depth outranks depth 0")
	}
}

// TestDedupeRanked: shards rediscovering one site collapse to the best
// representative, order-insensitively.
func TestDedupeRanked(t *testing.T) {
	a := RankedFinding{Image: "x", Finding: Finding{AccessPC: 0x10, GuardPC: 0x8, Verdict: VerdictLeak}, Score: 500, Depth: 3}
	b := a
	b.Depth = 1
	b.GuardPC = 0xC
	c := RankedFinding{Image: "x", Finding: Finding{AccessPC: 0x20, Verdict: VerdictLeak}, Score: 400, Depth: 0}
	for _, in := range [][]RankedFinding{{a, b, c}, {c, b, a}, {b, c, a}} {
		out := DedupeRanked(in)
		if len(out) != 2 {
			t.Fatalf("deduped to %d findings, want 2", len(out))
		}
		if out[0].GuardPC != b.GuardPC || out[0].Depth != 1 {
			t.Errorf("kept the wrong representative: %+v", out[0])
		}
	}
}

// TestBlockDepths: roots are depth 0, successors count up, blocks only
// the linear sweep keeps are -1.
func TestBlockDepths(t *testing.T) {
	p, meta := progen.GenerateGadget(7, progen.GadgetLeak)
	g := AnalyzeGadget(p, meta).CFG
	depths := g.blockDepths(g.Roots, new(walk))
	for _, r := range g.Roots {
		k, ok := g.blockIndex(r)
		if !ok {
			t.Fatalf("root %#x has no block", r)
		}
		if depths[k] != 0 {
			t.Errorf("root block %#x depth = %d", g.Blocks[k].Start, depths[k])
		}
	}
	for k, d := range depths {
		b := &g.Blocks[k]
		if (d >= 0) != b.Reachable {
			t.Errorf("block %#x: depth %d vs reachable %v", b.Start, d, b.Reachable)
		}
		if d > 0 {
			ok := false
			for k2, d2 := range depths {
				if d2 != d-1 {
					continue
				}
				for _, succ := range g.Blocks[k2].Succs {
					if succ == b.Start {
						ok = true
					}
				}
			}
			if !ok {
				t.Errorf("block %#x at depth %d has no predecessor at depth %d", b.Start, d, d-1)
			}
		}
	}
}
