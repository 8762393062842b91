// The variant × mitigation matrix: every implemented Spectre variant
// evaluated against every software/micro-architectural mitigation
// posture, with the expected leak/sealed ground truth pinned as a
// first-class table. The matrix is what makes "defense-aware" testable:
// a CR-Spectre campaign that probes the posture must find exactly the
// cells ExpectedLeak marks open.
package defense

import (
	"fmt"

	"repro/internal/spectre"
)

// Mitigation is one column of the variant × mitigation matrix. The
// first five are the software postures of Bălucea & Irofti (compiler
// transforms); InvisiSpec and SSBD are the micro-architectural controls
// that need no recompile.
type Mitigation int

// The matrix columns.
const (
	MitigationNone Mitigation = iota
	MitigationIndexMask
	MitigationSLH
	MitigationRetpoline
	MitigationFence
	MitigationInvisiSpec
	MitigationSSBD
	numMitigations
)

// Mitigations lists every matrix column, MitigationNone first.
func Mitigations() []Mitigation {
	ms := make([]Mitigation, 0, numMitigations)
	for m := MitigationNone; m < numMitigations; m++ {
		ms = append(ms, m)
	}
	return ms
}

// mitigations states each matrix column once: its name and the posture
// deploying exactly that mitigation, on the standard DEP baseline (the
// matrix varies the speculation defense, not the memory-safety layer).
var mitigations = [numMitigations]struct {
	name    string
	posture Posture
}{
	MitigationNone:       {"none", Posture{DEP: true}},
	MitigationIndexMask:  {"index-mask", Posture{DEP: true, Harden: spectre.HardenIndexMask}},
	MitigationSLH:        {"slh", Posture{DEP: true, Harden: spectre.HardenSLH}},
	MitigationRetpoline:  {"retpoline", Posture{DEP: true, Harden: spectre.HardenRetpoline}},
	MitigationFence:      {"fence", Posture{DEP: true, Harden: spectre.HardenFence}},
	MitigationInvisiSpec: {"invisispec", Posture{DEP: true, InvisiSpec: true}},
	MitigationSSBD:       {"ssbd", Posture{DEP: true, SSBD: true}},
}

// String names the mitigation.
func (m Mitigation) String() string {
	if m < 0 || m >= numMitigations {
		return fmt.Sprintf("mitigation(%d)", int(m))
	}
	return mitigations[m].name
}

// Posture returns the defense posture deploying exactly this mitigation;
// m must be one of Mitigations().
func (m Mitigation) Posture() Posture { return mitigations[m].posture }

// MatrixVariants lists the matrix rows: the four variant families the
// mitigation catalog distinguishes (v1/PHT, v2/BTB cross-training,
// v4/store bypass, RSB).
func MatrixVariants() []spectre.Variant {
	return []spectre.Variant{
		spectre.V1BoundsCheck,
		spectre.V2CrossTrain,
		spectre.V4StoreBypass,
		spectre.VRSB,
	}
}

// ExpectedLeak is the matrix's ground truth: whether the variant's leak
// survives the mitigation. Each software transform seals exactly the
// speculation primitive it addresses; InvisiSpec kills the covert
// channel itself and so seals everything; SSBD closes only the
// store-bypass window.
func ExpectedLeak(v spectre.Variant, m Mitigation) bool {
	switch m {
	case MitigationNone:
		return true
	case MitigationIndexMask, MitigationSLH:
		// Bounds-check hardening: only v1's out-of-bounds transient read
		// is clamped. RSB/BTB redirection and store bypass never consult
		// the hardened bounds check.
		return v != spectre.V1BoundsCheck
	case MitigationRetpoline:
		// Removing indirect branches defeats BTB injection; everything
		// else never used one. (Fences at landing sites also guard RSB —
		// but retpoline alone does not.)
		return v != spectre.V2CrossTrain
	case MitigationFence:
		// LFENCE insertion guards the victim's own speculation points
		// (bounds checks, return landings, sanitizing stores). v2's
		// transient path runs entirely inside an attacker-chosen gadget
		// the compiler cannot fence.
		return v == spectre.V2CrossTrain
	case MitigationInvisiSpec:
		// Squashed fills leave nothing for flush+reload to observe.
		return false
	case MitigationSSBD:
		return v != spectre.V4StoreBypass
	}
	return false
}

// VariantCell is one evaluated cell of the matrix.
type VariantCell struct {
	Variant    spectre.Variant
	Mitigation Mitigation
	Expected   bool // ExpectedLeak ground truth
	Outcome    Outcome
}

// Agrees reports whether the evaluated outcome matched the ground
// truth.
func (c VariantCell) Agrees() bool { return c.Outcome.Success == c.Expected }

// EvaluateCell runs the full injection + leak chain for one cell:
// the mitigation's posture against an attacker mounting the variant.
func EvaluateCell(v spectre.Variant, m Mitigation, seed int64) (VariantCell, error) {
	o, err := Evaluate(m.Posture(), Attacker{Variant: v}, seed)
	if err != nil {
		return VariantCell{}, fmt.Errorf("defense: %s under %s: %w", v, m, err)
	}
	return VariantCell{Variant: v, Mitigation: m, Expected: ExpectedLeak(v, m), Outcome: o}, nil
}

// VariantMatrix evaluates the full variant × mitigation grid.
// Deterministic under seed; rows in MatrixVariants × Mitigations order.
func VariantMatrix(seed int64) ([]VariantCell, error) {
	var cells []VariantCell
	for _, v := range MatrixVariants() {
		for _, m := range Mitigations() {
			c, err := EvaluateCell(v, m, seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}
