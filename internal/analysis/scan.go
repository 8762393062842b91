package analysis

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/sched"
)

// Corpus-scale scanning. One scan task is (image, root): each recovered
// function entry of each image runs its own taint pass, so whole-image
// sweeps shard across the sched pool at function granularity and large
// hosts don't serialize behind small gadgets. Per-root shards of one
// image rediscover shared sites; DedupeRanked merges them with a total
// order, so the assembled report is byte-identical at any worker count.
// Rooting each pass at a single entry under-approximates the whole-
// image join (taint that only flows via another root's prefix is not
// seen), which is sound for a candidate sweep: every pair the joined
// pass would flag from some root is flagged by that root's shard.
// Each image is decoded once, and recovers one CFG with no roots, by
// the first of its tasks to run. Its other tasks and the report's
// per-image summary read that CFG: a root that starts one of its blocks
// runs on it, and only a root in the middle of a block recovers a CFG
// of its own. Each pool worker runs its tasks on one scratch.

// ConfirmSpec carries what the SpecFuzz confirmation pass needs to
// execute a scanned image: the concrete program, its gadget metadata
// (input register, planted-secret and probe-array layout), the core
// configuration, and the instruction budget.
type ConfirmSpec struct {
	Prog     progen.Program
	Meta     progen.GadgetMeta
	CPU      cpu.Config
	MaxInstr uint64
}

// ScanImage is one corpus entry: the linked image, the taint policy to
// scan it under, whether it is a planted attack image (the gate's
// numerator), and an optional dynamic-confirmation spec.
type ScanImage struct {
	Name string
	Img  *isa.Image
	Cfg  Config
	// Attack marks planted gadget images for the ranking gate.
	Attack bool
	// Confirm, when non-nil, runs the forced-speculation confirmation
	// after the static scan and upgrades the image's static leaks to
	// confirmed (with the concrete witness) on success.
	Confirm *ConfirmSpec
}

// imageRoots is an image's analysis roots: entry plus every in-range
// symbol, deduplicated, in deterministic order.
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

// ScanCorpus runs the sharded whole-corpus scan: per-(image, root)
// static taint tasks fan out over the sched pool (workers as in
// sched.Workers; the context's telemetry and progress pool propagate to
// the workers), confirmation runs follow for images that carry a spec,
// and the merged, deduplicated, ranked report comes back in canonical
// form. The policy string is recorded in the report header and must be
// one of the Policy constants.
func ScanCorpus(ctx context.Context, policy string, images []ScanImage, workers int) (*FindingsReport, error) {
	type task struct {
		img  int
		root uint64
	}
	var tasks []task
	roots := make([][]uint64, len(images))
	for i, im := range images {
		roots[i] = imageRoots(im.Img)
		for _, r := range roots[i] {
			tasks = append(tasks, task{i, r})
		}
	}
	cfgs := make([]*CFG, len(images))
	cfgOnce := make([]sync.Once, len(images))
	shards, err := sched.MapLocal(ctx, workers, len(tasks), func(_ context.Context, s *scratch, i int) ([]RankedFinding, error) {
		t := tasks[i]
		im := images[t.img]
		cfgOnce[t.img].Do(func() {
			cfgs[t.img] = recoverCFG(new(CFG), isa.DecodeSlots(im.Img.Code), im.Img.Base, nil, &s.walk)
		})
		return s.scanRoot(im.Name, cfgs[t.img], im.Cfg, t.root), nil
	})
	if err != nil {
		return nil, err
	}
	var all []RankedFinding
	for _, fs := range shards {
		all = append(all, fs...)
	}
	all = DedupeRanked(all)

	// Dynamic confirmation, one task per image that carries a spec, on
	// one reused gadget machine per worker.
	var confirmIdx []int
	for i, im := range images {
		if im.Confirm != nil {
			confirmIdx = append(confirmIdx, i)
		}
	}
	if len(confirmIdx) > 0 {
		witnesses, err := sched.MapLocal(ctx, workers, len(confirmIdx), func(_ context.Context, g *gadgetMachine, i int) (*ConfirmWitness, error) {
			sp := images[confirmIdx[i]].Confirm
			return g.confirm(sp.Prog, sp.Meta, sp.CPU, sp.MaxInstr)
		})
		if err != nil {
			return nil, err
		}
		byImage := map[string]*ConfirmWitness{}
		for i, w := range witnesses {
			byImage[images[confirmIdx[i]].Name] = w
		}
		// Upgrade each finding in place under its image's witness (a
		// nil witness leaves it as is), then restore canonical order —
		// confirmation raises scores.
		for i := range all {
			ConfirmFindings(all[i:i+1], byImage[all[i].Image])
		}
		SortRanked(all)
	}

	perImage := map[string]int{}
	for _, f := range all {
		perImage[f.Image]++
	}
	rep := &FindingsReport{Schema: FindingsSchema, Policy: policy, Findings: all}
	for i, im := range images {
		// Every image has a task, for its entry, so the pool recovered
		// its CFG. The summary is that of the CFG from every root: each
		// valid root that does not start a block of it splits one.
		g := cfgs[i]
		blocks := len(g.Blocks)
		for _, r := range roots[i] {
			if g.validPC(r) && !g.isBlockStart(r) {
				blocks++
			}
		}
		rep.Images = append(rep.Images, ImageSummary{
			Name:      im.Name,
			Base:      im.Img.Base,
			NumInstrs: g.NumInstrs(),
			NumBlocks: blocks,
			Roots:     len(roots[i]),
			Attack:    im.Attack,
			Findings:  perImage[im.Name],
		})
	}
	rep.Sort()
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: scan produced invalid report: %w", err)
	}
	return rep, nil
}
