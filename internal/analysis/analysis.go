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
	return analyze(decodeImage(code), base, cfg, roots...)
}

// analyze is Analyze over an existing decode, which it only reads.
func analyze(d *decodedImage, base uint64, cfg Config, roots ...uint64) *Report {
	cfg = cfg.withDefaults()
	g := recoverCFG(d, base, roots...)
	pass := runTaint(g, cfg)
	reachable := 0
	for _, b := range g.Blocks {
		if b.Reachable {
			reachable++
		}
	}
	return &Report{
		Base:          base,
		NumInstrs:     g.NumInstrs(),
		NumBlocks:     len(g.Blocks),
		NumReachable:  reachable,
		IndirectSites: len(g.IndirectSites),
		InvalidTgts:   len(g.InvalidTargets),
		TruncatedTail: g.Truncated,
		Findings:      pass.findings(),
		CFG:           g,
	}
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
