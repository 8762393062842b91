package oracle

import "repro/internal/progen"

// Minimize shrinks a diverging program to the shortest failing
// instruction prefix. It scans prefix lengths k = 1..NumInstr, running
// p.Truncate(k) (the first k instructions with the remainder replaced by
// HALT) through run, and returns the first prefix that still diverges
// together with its length and result. run is the harness that found the
// divergence, RunProgram or RunTierDiff, under the same posture and
// hooks, so a block-tier repro stays a two-tier one.
//
// Linear scan from the front guarantees the returned prefix is minimal
// under the truncation family; divergences are rare, programs are a few
// hundred instructions, and the oracle retires millions of instructions
// per second, so the cost is negligible next to the soak itself.
//
// ok is false when no prefix reproduces the divergence (e.g. the failure
// was nondeterministic or induced by a hook keyed to state the
// truncation removed); callers should then report the full program.
func Minimize(p progen.Program, run func(progen.Program) (Result, error)) (min progen.Program, n int, res Result, ok bool) {
	for k := 1; k <= p.NumInstr; k++ {
		t := p.Truncate(k)
		r, err := run(t)
		if err != nil {
			continue
		}
		if !r.Clean() {
			return t, k, r, true
		}
	}
	return p, p.NumInstr, Result{}, false
}
