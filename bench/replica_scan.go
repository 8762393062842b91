package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/progen"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// scanGadgetLen is speclint's gadget-length limit for host images.
const scanGadgetLen = 3

// scanCorpus assembles the image set of `speclint scan -progen n`: every
// spectre variant and every MiBench host under the uninit-secret policy,
// plus n generated gadget programs carrying confirmation specs.
func scanCorpus(seed int64, n int, maxInstr uint64) ([]analysis.ScanImage, error) {
	attackVariants := map[spectre.Variant]bool{
		spectre.V1BoundsCheck: true,
		spectre.VBTB:          true,
		spectre.V2CrossTrain:  true,
	}
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
			Cfg:    analysis.Config{TaintedRegs: spectre.StaticTaintRegs(), MaxGadgetLen: scanGadgetLen, UninitSecret: true},
			Attack: attackVariants[v],
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
			Cfg:  analysis.Config{MaxGadgetLen: scanGadgetLen, UninitSecret: true},
		})
	}
	kinds := progen.GadgetKinds()
	for i := 0; i < n; i++ {
		kind := kinds[i%len(kinds)]
		s := sched.DeriveSeed(seed, uint64(i/len(kinds)))
		p, meta := progen.GenerateGadget(s, kind)
		out = append(out, analysis.ScanImage{
			Name:   fmt.Sprintf("progen/%s/%d", kind, s),
			Img:    &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code},
			Cfg:    analysis.Config{TaintedRegs: []uint8{meta.TaintReg}},
			Attack: kind.ExpectLeak(),
			Confirm: &analysis.ConfirmSpec{
				Prog: p, Meta: meta, CPU: cpu.DefaultConfig(), MaxInstr: maxInstr,
			},
		})
	}
	return out, nil
}

// imageRoots is the analyzer's per-image rooting: the entry plus every
// in-range symbol, deduplicated, ascending.
func imageRoots(img *isa.Image) []uint64 {
	roots := []uint64{img.Entry}
	for _, addr := range img.Symbols {
		if addr >= img.Base && addr < img.Base+uint64(len(img.Code)) {
			roots = append(roots, addr)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := roots[:1]
	for _, r := range roots[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// scanReplica re-drives analysis.ScanCorpus in its three stages: the
// per-root static scan, the forced-speculation confirmation, and the
// ranking that assembles the report.
func scanReplica(ctx context.Context, tr *tracer, policy string, images []analysis.ScanImage, workers int) (*analysis.FindingsReport, error) {
	type task struct {
		img  int
		root uint64
	}
	sctx, end := tr.span(ctx, "stage.scan")
	var tasks []task
	rootCount := make([]int, len(images))
	for i, im := range images {
		roots := imageRoots(im.Img)
		rootCount[i] = len(roots)
		for _, r := range roots {
			tasks = append(tasks, task{i, r})
		}
	}
	tr.count("analysis.roots", float64(len(tasks)))
	shards, err := tmap(sctx, tr, workers, len(tasks), func(ctx context.Context, i int) ([]analysis.RankedFinding, error) {
		t := tasks[i]
		im := images[t.img]
		_, end := tr.span(ctx, "analysis.taint")
		rep := analysis.Analyze(im.Img.Code, im.Img.Base, im.Cfg, t.root)
		end()
		_, end = tr.span(ctx, "analysis.rank")
		defer end()
		return analysis.RankFindings(im.Name, rep), nil
	})
	if err != nil {
		end()
		return nil, err
	}
	var all []analysis.RankedFinding
	for _, fs := range shards {
		all = append(all, fs...)
	}
	_, rend := tr.span(sctx, "analysis.rank")
	all = analysis.DedupeRanked(all)
	rend()
	end()

	var confirmIdx []int
	for i, im := range images {
		if im.Confirm != nil {
			confirmIdx = append(confirmIdx, i)
		}
	}
	if len(confirmIdx) > 0 {
		sctx, end := tr.span(ctx, "stage.confirm")
		witnesses, err := tmap(sctx, tr, workers, len(confirmIdx), func(ctx context.Context, i int) (*analysis.ConfirmWitness, error) {
			sp := images[confirmIdx[i]].Confirm
			_, end := tr.span(ctx, "analysis.confirm")
			defer end()
			return analysis.ConfirmGadget(sp.Prog, sp.Meta, sp.CPU, sp.MaxInstr)
		})
		if err != nil {
			end()
			return nil, err
		}
		_, rend := tr.span(sctx, "analysis.rank")
		byImage := map[string]*analysis.ConfirmWitness{}
		for i, w := range witnesses {
			byImage[images[confirmIdx[i]].Name] = w
		}
		for name, w := range byImage {
			if w == nil {
				continue
			}
			var mine []analysis.RankedFinding
			var idxs []int
			for i := range all {
				if all[i].Image == name {
					idxs = append(idxs, i)
					mine = append(mine, all[i])
				}
			}
			analysis.ConfirmFindings(mine, w)
			for j, i := range idxs {
				all[i] = mine[j]
			}
		}
		analysis.SortRanked(all)
		rend()
		end()
	}

	sctx, end = tr.span(ctx, "stage.rank")
	defer end()
	_, rend = tr.span(sctx, "analysis.rank")
	defer rend()
	perImage := map[string]int{}
	for _, f := range all {
		perImage[f.Image]++
		if f.Verdict == analysis.VerdictConfirmed {
			tr.count("analysis.confirmed", 1)
		}
	}
	tr.count("analysis.findings", float64(len(all)))
	rep := &analysis.FindingsReport{Schema: analysis.FindingsSchema, Policy: policy, Findings: all}
	for i, im := range images {
		g := analysis.RecoverCFG(im.Img.Code, im.Img.Base, imageRoots(im.Img)...)
		rep.Images = append(rep.Images, analysis.ImageSummary{
			Name:      im.Name,
			Base:      im.Img.Base,
			NumInstrs: g.NumInstrs(),
			NumBlocks: len(g.Blocks),
			Roots:     rootCount[i],
			Attack:    im.Attack,
			Findings:  perImage[im.Name],
		})
	}
	rep.Sort()
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("scan replica produced an invalid report: %w", err)
	}
	return rep, nil
}
