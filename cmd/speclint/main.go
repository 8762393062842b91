// Command speclint statically lints the project's guest-binary corpus
// with internal/analysis: CFG recovery, speculative-taint findings, and
// a ROP-gadget census, with no simulation. The built-in corpus is
// every generated Spectre attack binary (one per variant) and every
// MiBench ROP host image.
//
// One lint invariant gates the exit status: the v1 attack binary's
// victim routine must be statically flagged as a leak (the analyzer
// never regresses below the paper's core gadget).
//
// With -progen N it additionally soak-tests static/dynamic agreement in
// cmd/difftest style: N seeded gadget programs (internal/progen) are
// analyzed statically and run on the simulator, and any verdict
// disagreement fails the run.
//
// Beyond the lint gate, three verbs drive the corpus-scale gadget-
// hunting pipeline:
//
//	speclint scan    # sharded whole-corpus sweep under the
//	                 # uninit-secret policy, SpecFuzz confirmation for
//	                 # generated gadgets, ranked v2 findings report
//	speclint rank    # print the top-ranked findings of a report
//	speclint report  # validate a report and print its summary
//
// Usage:
//
//	speclint                            # lint the built-in corpus (<1s)
//	speclint -json findings.json        # also write machine-readable findings
//	speclint -progen 200 -seed 1        # agreement soak, difftest style
//	speclint -metrics                   # dump the telemetry registry
//	speclint scan -progen 48 -gate -out findings.json
//	speclint rank -in findings.json -top 10
//	speclint report -in findings.json
//
// Exit status: 0 clean, 1 lint/scan failure or disagreement, 2 usage.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
)

// hostGadgetLen matches the scan depth the ROP demos use on host
// images, so the lint's gadget census counts the same gadgets.
const hostGadgetLen = 3

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		verb := args[0]
		rest := args[1:]
		switch verb {
		case "scan":
			return runScan(rest, stdout)
		case "rank":
			return runRank(rest, stdout)
		case "report":
			return runReport(rest, stdout)
		default:
			return fmt.Errorf("speclint: unknown verb %q (want scan, rank, or report): %w", verb, flag.ErrHelp)
		}
	}
	return runLint(args, stdout)
}

// startObs wires speclint's -obs flag through the harness. The registry
// exists whatever the flags say, because the summary line and -metrics
// read it; the returned context carries it, and under -obs the recorder
// and the named progress pool, into the worker pools.
func startObs(addr, pool string) (*obs.Harness, context.Context, error) {
	h, err := obs.Start(obs.Config{Tool: "speclint", Obs: addr, Stall: time.Minute})
	if err != nil {
		return nil, nil, err
	}
	if h.Registry == nil {
		h.Registry = telemetry.NewRegistry()
	}
	return h, h.Context(context.Background(), pool), nil
}

func runLint(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("speclint", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seed     = fs.Int64("seed", 1, "base seed for the -progen soak")
		progenN  = fs.Int("progen", 0, "also soak static/dynamic agreement over this many generated gadget programs")
		workers  = fs.Int("workers", 0, "lint and soak worker goroutines (0 = all cores)")
		maxInstr = fs.Uint64("maxinstr", 200_000, "per-program retired-instruction budget in the soak")
		jsonOut  = fs.String("json", "", "write the findings reports as JSON to this file")
		metrics  = fs.Bool("metrics", false, "dump the telemetry registry after the run")
		obsAddr  = fs.String("obs", "", "serve live observability (/metrics, /progress, /events, /debug/pprof) on this address while running")
		verbose  = fs.Bool("v", false, "per-image detail lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	start := time.Now()
	h, ctx, err := startObs(*obsAddr, "agreement-soak")
	if err != nil {
		return err
	}
	defer h.Close()
	reg := h.Registry
	reports, err := lintCorpus(ctx, stdout, reg, *workers, *verbose)
	if err != nil {
		return err
	}
	lintSecs := time.Since(start).Seconds()

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	disagreements := 0
	if *progenN > 0 {
		n, err := soakAgreement(ctx, stdout, reg, *seed, *progenN, *workers, *maxInstr, *verbose)
		if err != nil {
			return err
		}
		disagreements = n
	}

	if *metrics {
		if err := reg.Write(stdout); err != nil {
			return err
		}
	}
	v := reg.Values()
	fmt.Fprintf(stdout, "speclint: %d images (%.0f instrs, %.0f gadgets) in %.2fs; findings: %.0f leak, %.0f mitigated, %.0f no-transmit; agreement: %d programs, %d disagreements\n",
		len(reports), v["speclint.instrs"], v["speclint.gadgets"], lintSecs,
		v["speclint.findings.leak"], v["speclint.findings.mitigated"], v["speclint.findings.no_transmit"],
		*progenN, disagreements)
	if disagreements > 0 {
		return fmt.Errorf("speclint: %d static/dynamic disagreements", disagreements)
	}
	return nil
}

// corpusImage is one guest binary with its analysis convention.
type corpusImage struct {
	name  string
	img   *isa.Image
	taint []uint8 // registers attacker-controlled at the roots
}

// corpus links the built-in guest binaries: one attack image per
// Spectre variant plus every MiBench host image, sorted by name so
// every downstream artifact is ordered the same way.
func corpus() ([]corpusImage, error) {
	var out []corpusImage
	for _, v := range spectre.Variants() {
		mod, err := spectre.Config{Variant: v, TargetAddr: 0x123456}.Module()
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		img, err := mod.Link(0x200000)
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		out = append(out, corpusImage{
			name:  "spectre/" + v.String(),
			img:   img,
			taint: spectre.StaticTaintRegs(),
		})
	}
	for _, w := range append(mibench.Suite(), mibench.Extended()...) {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		img, err := mod.Link(0x100000)
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		out = append(out, corpusImage{name: "host/" + w.Name, img: img})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

func lintCorpus(ctx context.Context, stdout io.Writer, reg *telemetry.Registry, workers int, verbose bool) ([]*analysis.Report, error) {
	images, err := corpus()
	if err != nil {
		return nil, err
	}
	// Shard the per-image analysis across the pool; sched.Map returns
	// results in task order, so the merge below is deterministic at any
	// worker count.
	reports, err := sched.Map(ctx, workers, len(images), func(_ context.Context, i int) (*analysis.Report, error) {
		ci := images[i]
		rep := analysis.AnalyzeImage(ci.img, analysis.Config{TaintedRegs: ci.taint, MaxGadgetLen: hostGadgetLen})
		rep.Name = ci.name
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rep := range reports {
		reg.Inc("speclint.images")
		reg.Add("speclint.instrs", uint64(rep.NumInstrs))
		reg.Add("speclint.blocks", uint64(rep.NumBlocks))
		reg.Add("speclint.indirect_sites", uint64(rep.IndirectSites))
		reg.Add("speclint.gadgets", uint64(rep.NumGadgets))
		for _, f := range rep.Findings {
			switch f.Verdict {
			case analysis.VerdictLeak:
				reg.Inc("speclint.findings.leak")
			case analysis.VerdictMitigated:
				reg.Inc("speclint.findings.mitigated")
			default:
				reg.Inc("speclint.findings.no_transmit")
			}
		}
		if verbose {
			fmt.Fprintf(stdout, "%-28s %s\n", images[i].name, rep.Summary())
		}
	}
	if err := checkV1Flagged(images, reports); err != nil {
		return nil, err
	}
	return reports, nil
}

// checkV1Flagged enforces the lint invariant: the v1 attack image's
// victim routine carries a static leak finding.
func checkV1Flagged(images []corpusImage, reports []*analysis.Report) error {
	name := "spectre/" + spectre.V1BoundsCheck.String()
	for i, ci := range images {
		if ci.name != name {
			continue
		}
		victim, ok := ci.img.Symbols[spectre.VictimSymbol]
		if !ok {
			return fmt.Errorf("speclint: %s lacks the %q symbol", name, spectre.VictimSymbol)
		}
		for _, f := range reports[i].Leaks() {
			if f.AccessPC >= victim && f.AccessPC < victim+16*isa.InstrSize {
				return nil
			}
		}
		return fmt.Errorf("speclint: %s: victim routine at %#x carries no static leak finding", name, victim)
	}
	return fmt.Errorf("speclint: corpus lacks %s", name)
}

// soakAgreement is the difftest-style static/dynamic cross-check: n
// seeded gadget programs, each analyzed and executed, verdicts
// compared. Returns the number of disagreements.
func soakAgreement(ctx context.Context, stdout io.Writer, reg *telemetry.Registry, seed int64, n, workers int, maxInstr uint64, verbose bool) (int, error) {
	results, err := analysis.SoakAgreement(ctx, seed, n, workers, cpu.DefaultConfig(), maxInstr)
	if err != nil {
		return 0, err
	}
	disagreements := 0
	for _, a := range results {
		reg.Inc("speclint.soak.programs")
		if !a.Agrees() {
			disagreements++
			reg.Inc("speclint.soak.disagreements")
			fmt.Fprintf(stdout, "DISAGREEMENT %v\n", a)
		} else if verbose {
			fmt.Fprintf(stdout, "ok %v\n", a)
		}
	}
	return disagreements, nil
}

// scanAttackVariants marks the spectre variants whose planted gadget
// the static pass can flag — the attack side of the ranking gate. RSB
// and the store-overflow/store-bypass variants plant their gadget in
// prediction structures the register-taint lattice does not model (the
// return stack, store-buffer address disambiguation with constant
// slots), so their images ride along as benign corpus material; the v4
// family's planted gadgets enter the gate through the generated progen
// ssb programs, whose slot address is attacker-derived.
var scanAttackVariants = map[spectre.Variant]bool{
	spectre.V1BoundsCheck: true,
	spectre.VBTB:          true,
	spectre.V2CrossTrain:  true,
}

// scanCorpus assembles the scan verb's image set: every spectre variant
// (the full implemented set, not just the paper's averaged four) and
// every MiBench host under the uninit-secret policy (attack variants
// keep their labeled attacker registers), plus progenN generated gadget
// programs with confirmation specs — the planted, labeled half of the
// ranking gate.
func scanCorpus(seed int64, progenN int, maxInstr uint64) ([]analysis.ScanImage, error) {
	var out []analysis.ScanImage
	for _, v := range spectre.AllVariants() {
		mod, err := spectre.Config{Variant: v, TargetAddr: 0x123456}.Module()
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		img, err := mod.Link(0x200000)
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		out = append(out, analysis.ScanImage{
			Name:   "spectre/" + v.String(),
			Img:    img,
			Cfg:    analysis.Config{TaintedRegs: spectre.StaticTaintRegs(), UninitSecret: true},
			Attack: scanAttackVariants[v],
		})
	}
	for _, w := range append(mibench.Suite(), mibench.Extended()...) {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		img, err := mod.Link(0x100000)
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		out = append(out, analysis.ScanImage{
			Name: "host/" + w.Name,
			Img:  img,
			Cfg:  analysis.Config{UninitSecret: true},
		})
	}
	kinds := progen.GadgetKinds()
	for i := 0; i < progenN; i++ {
		kind := kinds[i%len(kinds)]
		s := sched.DeriveSeed(seed, uint64(i/len(kinds)))
		p, meta := progen.GenerateGadget(s, kind)
		out = append(out, analysis.ScanImage{
			Name: fmt.Sprintf("progen/%s/%d", kind, s),
			Img:  &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code},
			Cfg:  analysis.Config{TaintedRegs: []uint8{meta.TaintReg}},
			// Only the genuinely leaking kinds are planted gadgets; the
			// mitigated variants land on the benign side of the gate.
			Attack: kind.ExpectLeak(),
			Confirm: &analysis.ConfirmSpec{
				Prog: p, Meta: meta, CPU: cpu.DefaultConfig(), MaxInstr: maxInstr,
			},
		})
	}
	return out, nil
}

func runScan(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("speclint scan", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seed     = fs.Int64("seed", 1, "base seed for the generated gadget images")
		progenN  = fs.Int("progen", 0, "include this many generated gadget programs (with SpecFuzz confirmation)")
		workers  = fs.Int("workers", 0, "scan worker goroutines (0 = all cores)")
		maxInstr = fs.Uint64("maxinstr", 200_000, "per-program retired-instruction budget for confirmation runs")
		outFile  = fs.String("out", "", "write the v2 findings report to this file (default: stdout)")
		gate     = fs.Bool("gate", false, "fail unless every attack image outranks every benign finding")
		metrics  = fs.Bool("metrics", false, "dump the telemetry registry after the run")
		obsAddr  = fs.String("obs", "", "serve live observability on this address while scanning")
		verbose  = fs.Bool("v", false, "per-image summary lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	start := time.Now()
	h, ctx, err := startObs(*obsAddr, "corpus-scan")
	if err != nil {
		return err
	}
	defer h.Close()
	reg := h.Registry

	images, err := scanCorpus(*seed, *progenN, *maxInstr)
	if err != nil {
		return err
	}
	rep, err := analysis.ScanCorpus(ctx, analysis.PolicyUninitSecret, images, *workers)
	if err != nil {
		return err
	}
	for _, im := range rep.Images {
		reg.Inc("speclint.scan.images")
		reg.Add("speclint.scan.findings", uint64(im.Findings))
		if *verbose {
			fmt.Fprintf(stdout, "%-28s %d instrs, %d blocks, %d roots, %d findings\n",
				im.Name, im.NumInstrs, im.NumBlocks, im.Roots, im.Findings)
		}
	}
	confirmed := 0
	for _, f := range rep.Findings {
		if f.Verdict == analysis.VerdictConfirmed {
			confirmed++
		}
	}

	blob, err := analysis.EncodeFindings(rep)
	if err != nil {
		return err
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, blob, 0o644); err != nil {
			return err
		}
	} else {
		if _, err := stdout.Write(blob); err != nil {
			return err
		}
	}
	if *metrics {
		if err := reg.Write(stdout); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "speclint scan: %d images, %d findings (%d confirmed) in %.2fs\n",
		len(rep.Images), len(rep.Findings), confirmed, time.Since(start).Seconds())
	if *gate {
		if err := rep.GateRanking(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "speclint scan: ranking gate ok — every attack image outranks all benign findings")
	}
	return nil
}

func readFindings(path string) (*analysis.FindingsReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return analysis.DecodeFindings(data)
}

func runRank(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("speclint rank", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in  = fs.String("in", "", "findings report to rank (required)")
		top = fs.Int("top", 10, "number of findings to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("speclint rank: -in is required: %w", flag.ErrHelp)
	}
	rep, err := readFindings(*in)
	if err != nil {
		return err
	}
	n := *top
	if n > len(rep.Findings) {
		n = len(rep.Findings)
	}
	for i := 0; i < n; i++ {
		f := rep.Findings[i]
		kind := f.Kind
		if kind == "" {
			kind = "v1-bounds"
		}
		extra := ""
		if f.AttackerIndex {
			extra = " attacker-index"
		}
		if f.Repro != nil {
			extra += fmt.Sprintf(" repro(input=%#x secret=%#x)", f.Repro.Input, f.Repro.Secret)
		}
		fmt.Fprintf(stdout, "%3d. score %4d  %-28s %-16s %-9s access=%#x depth=%d span=%d%s\n",
			i+1, f.Score, f.Image, kind, f.Verdict, f.AccessPC, f.Depth, f.Span, extra)
	}
	fmt.Fprintf(stdout, "speclint rank: %d of %d findings shown\n", n, len(rep.Findings))
	return nil
}

func runReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("speclint report", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in   = fs.String("in", "", "findings report to validate (required)")
		gate = fs.Bool("gate", false, "also enforce the attack-over-benign ranking gate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("speclint report: -in is required: %w", flag.ErrHelp)
	}
	rep, err := readFindings(*in)
	if err != nil {
		return err
	}
	counts := map[analysis.Verdict]int{}
	attackImages := 0
	for _, f := range rep.Findings {
		counts[f.Verdict]++
	}
	for _, im := range rep.Images {
		if im.Attack {
			attackImages++
		}
	}
	fmt.Fprintf(stdout, "speclint report: schema %s, policy %s: %d images (%d attack), %d findings: %d confirmed, %d leak, %d mitigated, %d no-transmit\n",
		rep.Schema, rep.Policy, len(rep.Images), attackImages, len(rep.Findings),
		counts[analysis.VerdictConfirmed], counts[analysis.VerdictLeak],
		counts[analysis.VerdictMitigated], counts[analysis.VerdictNoTransmit])
	if *gate {
		if err := rep.GateRanking(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "speclint report: ranking gate ok")
	}
	return nil
}
