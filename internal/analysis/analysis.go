package analysis

import (
	"fmt"
	"strings"

	"repro/internal/gadget"
	"repro/internal/isa"
)

// Report is the JSON-serialisable result of analysing one image.
type Report struct {
	Name          string    `json:"name,omitempty"`
	Base          uint64    `json:"base"`
	NumInstrs     int       `json:"num_instrs"`
	NumBlocks     int       `json:"num_blocks"`
	NumReachable  int       `json:"num_reachable"`
	IndirectSites int       `json:"indirect_sites"`
	InvalidTgts   int       `json:"invalid_targets"`
	TruncatedTail int       `json:"truncated_tail,omitempty"`
	NumGadgets    int       `json:"num_gadgets"`
	Findings      []Finding `json:"findings"`

	// CFG carries the full graph for programmatic consumers; it is
	// omitted from JSON output.
	CFG *CFG `json:"-"`
}

// Leaks returns the findings classified as leaking.
func (r *Report) Leaks() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Verdict == VerdictLeak {
			out = append(out, f)
		}
	}
	return out
}

// Analyze recovers the CFG of code loaded at base, runs the
// speculative-taint pass from the given roots (every root starts with
// cfg.TaintedRegs attacker-controlled), and assembles the report. It
// never executes the program, and it leaves NumGadgets 0: only
// AnalyzeImage takes the gadget census.
func Analyze(code []byte, base uint64, cfg Config, roots ...uint64) *Report {
	var s scratch
	return s.report(recoverCFG(new(CFG), isa.DecodeSlots(code), base, roots, &s.walk), cfg)
}

// scratch is the static pass's working memory: a scan worker keeps one
// for all its tasks (sched.MapLocal), and each exported entry point runs
// on a fresh one.
type scratch struct {
	walk walk
	pass taintPass
	// split is the CFG of a root in the middle of a block of its
	// image's shared CFG, which the root splits.
	split CFG
	fs    []Finding
}

// report is the pass over g from its roots, as a Report that owns g.
func (s *scratch) report(g *CFG, cfg Config) *Report {
	s.pass.run(g, g.Roots, cfg.withDefaults())
	reachable := 0
	for i := range g.Blocks {
		if g.Blocks[i].Reachable {
			reachable++
		}
	}
	return &Report{
		Base:          g.Base,
		NumInstrs:     g.NumInstrs(),
		NumBlocks:     len(g.Blocks),
		NumReachable:  reachable,
		IndirectSites: len(g.IndirectSites),
		InvalidTgts:   len(g.InvalidTargets),
		TruncatedTail: g.Truncated,
		Findings:      s.pass.findings(nil, &s.walk),
		CFG:           g,
	}
}

// scanRoot is one scan task: the ranked findings of the pass from root
// over the image called name, whose rootless CFG is g, which it only
// reads. A root that starts a block of g runs on g, whose blocks,
// edges, depths and paths are those of the root's own CFG; a root in
// the middle of a block splits that block, so it recovers its own CFG
// into s.split. An invalid root has no findings, as its own CFG has no
// roots. Only the returned findings and their witnesses are allocated.
func (s *scratch) scanRoot(name string, g *CFG, cfg Config, root uint64) []RankedFinding {
	if !g.validPC(root) {
		return nil
	}
	roots := []uint64{root}
	if !g.isBlockStart(root) {
		g = recoverCFG(&s.split, g.dec, g.Base, roots, &s.walk)
	}
	s.pass.run(g, roots, cfg.withDefaults())
	s.fs = s.pass.findings(s.fs, &s.walk)
	return rankFindings(name, s.fs, g, roots, &s.walk)
}

// AnalyzeImage analyses a linked image, rooting the pass at the entry
// point and every symbol (victim routines are reached by symbol even
// when only indirect calls target them), and counts the image's ROP
// gadgets of at most cfg.MaxGadgetLen instructions with gadget.Scan.
func AnalyzeImage(img *isa.Image, cfg Config) *Report {
	rep := Analyze(img.Code, img.Base, cfg, imageRoots(img)...)
	rep.NumGadgets = len(gadget.Scan(img, cfg.withDefaults().MaxGadgetLen))
	return rep
}

// Summary renders a one-line human-readable digest for speclint output.
func (r *Report) Summary() string {
	leaks, mitigated, none := 0, 0, 0
	for _, f := range r.Findings {
		switch f.Verdict {
		case VerdictLeak:
			leaks++
		case VerdictMitigated:
			mitigated++
		default:
			none++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d instrs, %d blocks (%d reachable), %d indirect, %d gadgets; findings: %d leak, %d mitigated, %d no-transmit",
		r.NumInstrs, r.NumBlocks, r.NumReachable, r.IndirectSites, r.NumGadgets, leaks, mitigated, none)
	return b.String()
}
