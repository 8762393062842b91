package analysis

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/progen"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// scanTestCorpus mirrors speclint scan's corpus: every spectre variant
// linked at 0x200000, the named MiBench hosts (all of them when hosts
// is nil) linked at 0x100000, and progenN generated gadgets with
// confirmation specs, seeded as speclint scan -seed 1 seeds them.
func scanTestCorpus(tb testing.TB, hosts []string, progenN int) []ScanImage {
	tb.Helper()
	var out []ScanImage
	for _, v := range spectre.AllVariants() {
		mod, err := spectre.Config{Variant: v, TargetAddr: 0x123456}.Module()
		if err != nil {
			tb.Fatalf("spectre %s: %v", v, err)
		}
		img, err := mod.Link(0x200000)
		if err != nil {
			tb.Fatalf("spectre %s: %v", v, err)
		}
		out = append(out, ScanImage{
			Name: "spectre/" + v.String(), Img: img,
			Cfg: Config{TaintedRegs: spectre.StaticTaintRegs(), UninitSecret: true},
		})
	}
	if hosts == nil {
		for _, w := range append(mibench.Suite(), mibench.Extended()...) {
			hosts = append(hosts, w.Name)
		}
	}
	for _, name := range hosts {
		out = append(out, ScanImage{Name: "host/" + name, Img: linkHost(tb, name), Cfg: Config{UninitSecret: true}})
	}
	kinds := progen.GadgetKinds()
	for i := 0; i < progenN; i++ {
		kind := kinds[i%len(kinds)]
		s := sched.DeriveSeed(1, uint64(i/len(kinds)))
		p, meta := progen.GenerateGadget(s, kind)
		out = append(out, ScanImage{
			Name:   fmt.Sprintf("progen/%s/%d", kind, s),
			Img:    &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code},
			Cfg:    Config{TaintedRegs: []uint8{meta.TaintReg}},
			Attack: kind.ExpectLeak(),
			Confirm: &ConfirmSpec{
				Prog: p, Meta: meta, CPU: cpu.DefaultConfig(), MaxInstr: agreementBudget,
			},
		})
	}
	return out
}

// linkHost links the named MiBench workload's ROP host image at
// 0x100000, as speclint does.
func linkHost(tb testing.TB, name string) *isa.Image {
	tb.Helper()
	w, err := mibench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := w.HostModule(rop.HostOptions{})
	if err != nil {
		tb.Fatalf("host %s: %v", name, err)
	}
	img, err := mod.Link(0x100000)
	if err != nil {
		tb.Fatalf("host %s: %v", name, err)
	}
	return img
}

// checkSameCFG fails tb unless got, recovered from a shared decode,
// equals want, recovered by RecoverCFG from the raw bytes, and every
// block's Instrs is cap-limited so appending to it cannot write into
// the next block.
func checkSameCFG(tb testing.TB, got, want *CFG) {
	tb.Helper()
	if len(got.Blocks) != len(want.Blocks) {
		tb.Fatalf("got %d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		gb, wb := &got.Blocks[i], &want.Blocks[i]
		if gb.Start != wb.Start || !reflect.DeepEqual(gb.Instrs, wb.Instrs) ||
			!reflect.DeepEqual(gb.Succs, wb.Succs) || gb.Indirect != wb.Indirect || gb.Reachable != wb.Reachable {
			tb.Fatalf("block %d: got %+v, want %+v", i, gb, wb)
		}
		if cap(gb.Instrs) != len(gb.Instrs) {
			tb.Fatalf("block %#x: Instrs has cap %d > len %d", gb.Start, cap(gb.Instrs), len(gb.Instrs))
		}
	}
	if !reflect.DeepEqual(got.Roots, want.Roots) || !reflect.DeepEqual(got.IndirectSites, want.IndirectSites) ||
		!reflect.DeepEqual(got.InvalidTargets, want.InvalidTargets) || got.Truncated != want.Truncated {
		tb.Fatalf("graph fields differ: roots %x/%x, indirect %x/%x, invalid %x/%x, truncated %d/%d",
			got.Roots, want.Roots, got.IndirectSites, want.IndirectSites,
			got.InvalidTargets, want.InvalidTargets, got.Truncated, want.Truncated)
	}
}

// TestSharedDecodeCFGMatchesRecoverCFG: for every (image, root) task of
// speclint scan's corpus, the CFG recovered from the image's shared
// decode, as a root that splits a block recovers its own, equals
// RecoverCFG's from the bytes. All roots of an image are recovered from
// one decode before any is compared, so a recovery that wrote into the
// shared decode would show up.
func TestSharedDecodeCFGMatchesRecoverCFG(t *testing.T) {
	for _, im := range scanTestCorpus(t, nil, 48) {
		d := isa.DecodeSlots(im.Img.Code)
		roots := imageRoots(im.Img)
		shared := make([]*CFG, len(roots))
		for i, r := range roots {
			shared[i] = recoverCFG(new(CFG), d, im.Img.Base, []uint64{r}, new(walk))
		}
		for i, r := range roots {
			checkSameCFG(t, shared[i], RecoverCFG(im.Img.Code, im.Img.Base, r))
		}
	}
}

// scanTask is one (image, root) task of a scan, run on the image's
// shared, rootless CFG.
type scanTask struct {
	im   ScanImage
	g    *CFG
	root uint64
}

// scanTasks recovers each image's shared CFG, with w as working memory,
// and lists the image's scan tasks, plus, with midBlock, one root in the
// middle of the longest block of each host, which splits that block.
func scanTasks(tb testing.TB, images []ScanImage, w *walk, midBlock bool) [][]scanTask {
	tb.Helper()
	out := make([][]scanTask, len(images))
	for i, im := range images {
		g := recoverCFG(new(CFG), isa.DecodeSlots(im.Img.Code), im.Img.Base, nil, w)
		roots := imageRoots(im.Img)
		if midBlock && strings.HasPrefix(im.Name, "host/") {
			roots = append(roots, midBlockPC(tb, g))
		}
		for _, r := range roots {
			out[i] = append(out[i], scanTask{im, g, r})
		}
	}
	return out
}

// midBlockPC returns a valid PC of g that starts no block: the slot
// after the first load in a block that a conditional branch ends, when g
// has one, else the middle of its longest block. A pass run from the
// first kind's block start would see the load leave the branch's flags
// in flight, and open windows the root's own pass does not.
func midBlockPC(tb testing.TB, g *CFG) uint64 {
	tb.Helper()
	var longest *Block
	for i := range g.Blocks {
		b := &g.Blocks[i]
		if b.Terminal().Op.IsCondBranch() {
			for i, in := range b.Instrs[:len(b.Instrs)-1] {
				if in.Op == isa.LOAD || in.Op == isa.LOADB {
					return b.Start + uint64(i+1)*isa.InstrSize
				}
			}
		}
		if longest == nil || len(b.Instrs) > len(longest.Instrs) {
			longest = b
		}
	}
	if longest == nil || len(longest.Instrs) < 2 {
		tb.Fatal("no block has two instructions")
	}
	return longest.Start + uint64(len(longest.Instrs)/2)*isa.InstrSize
}

// sameRanked fails tb unless a scan task's findings equal those ranked
// from Analyze, an empty result matching a nil one.
func sameRanked(tb testing.TB, what string, got, want []RankedFinding) {
	tb.Helper()
	if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: scan task ranks\n%+v\nAnalyze ranks\n%+v", what, got, want)
	}
}

// TestScanTaskMatchesAnalyze: for every (image, root) task of speclint
// scan's corpus, and a mid-block root in each host, the scan task on the
// image's shared CFG ranks exactly what RankFindings ranks of Analyze
// from that root. All tasks run on one scratch, over the images largest
// first and then smallest first, so a task that read a predecessor's
// leftovers, or wrote into the shared CFG, would show up. The report's
// per-image summary counts are those of the CFG from every root.
func TestScanTaskMatchesAnalyze(t *testing.T) {
	images := scanTestCorpus(t, nil, 48)
	var s scratch
	tasks := scanTasks(t, images, &s.walk, true)
	order := make([]int, len(images))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(images[order[a]].Img.Code) > len(images[order[b]].Img.Code)
	})
	want := make([][][]RankedFinding, len(images))
	for i, ts := range tasks {
		for _, tk := range ts {
			im := tk.im
			want[i] = append(want[i], RankFindings(im.Name, Analyze(im.Img.Code, im.Img.Base, im.Cfg, tk.root)))
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, i := range order {
			for j, tk := range tasks[i] {
				got := s.scanRoot(tk.im.Name, tk.g, tk.im.Cfg, tk.root)
				sameRanked(t, fmt.Sprintf("%s root %#x", tk.im.Name, tk.root), got, want[i][j])
			}
		}
		slices.Reverse(order)
	}
	for _, ts := range tasks {
		im := ts[0].im
		checkSameCFG(t, ts[0].g, recoverCFG(new(CFG), isa.DecodeSlots(im.Img.Code), im.Img.Base, nil, new(walk)))
	}

	rep, err := ScanCorpus(context.Background(), PolicyUninitSecret, images, 2)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ImageSummary{}
	for _, sum := range rep.Images {
		byName[sum.Name] = sum
	}
	for _, im := range images {
		g := RecoverCFG(im.Img.Code, im.Img.Base, imageRoots(im.Img)...)
		if sum := byName[im.Name]; sum.NumInstrs != g.NumInstrs() || sum.NumBlocks != len(g.Blocks) {
			t.Errorf("%s: summary has %d instrs, %d blocks; the CFG from every root has %d, %d",
				im.Name, sum.NumInstrs, sum.NumBlocks, g.NumInstrs(), len(g.Blocks))
		}
	}
}

// TestScanTaskAllocs: once a scratch has run every task of a corpus, a
// task allocates only the findings it returns: the ranked slice and
// each witness. A mid-block root per host keeps the split path in.
func TestScanTaskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	images := scanTestCorpus(t, []string{"math", "sha_1"}, 24)
	var s scratch
	tasks := scanTasks(t, images, &s.walk, true)
	for _, ts := range tasks {
		for _, tk := range ts {
			s.scanRoot(tk.im.Name, tk.g, tk.im.Cfg, tk.root)
		}
	}
	for _, ts := range tasks {
		for _, tk := range ts {
			var got []RankedFinding
			allocs := testing.AllocsPerRun(1, func() { got = s.scanRoot(tk.im.Name, tk.g, tk.im.Cfg, tk.root) })
			want := 0
			if len(got) > 0 {
				want++
			}
			for _, f := range got {
				if f.Witness != nil {
					want++
				}
			}
			if int(allocs) != want {
				t.Errorf("%s root %#x: %.0f allocations for %d findings, want %d",
					tk.im.Name, tk.root, allocs, len(got), want)
			}
		}
	}
}

// TestScanCorpusAllocs is the static scan's allocation gate: each image
// is decoded once into one CFG its tasks share, and a task on a reused
// scratch allocates only its findings, so a pass allocates the decodes,
// the CFGs, the findings, the confirmations and the report.
func TestScanCorpusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 768 << 10
	images := scanTestCorpus(t, []string{"math", "sha_1"}, 24)
	ctx := context.Background()
	if _, err := ScanCorpus(ctx, PolicyUninitSecret, images, 1); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ScanCorpus(ctx, PolicyUninitSecret, images, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per >= bound {
		t.Errorf("a ScanCorpus pass allocates %d bytes, want under %d", per, bound)
	}
	t.Logf("per ScanCorpus pass: %d bytes, %d objects", per, (after.Mallocs-before.Mallocs)/runs)
}

// BenchmarkTaintRoot measures the static pass of one scan task: the
// taint worklist from the entry of the sha_1 host, under the
// uninit-secret policy, and the ranking of its findings, on the image's
// shared CFG and a reused scratch, as ScanCorpus runs it.
func BenchmarkTaintRoot(b *testing.B) {
	img := linkHost(b, "sha_1")
	var s scratch
	g := recoverCFG(new(CFG), isa.DecodeSlots(img.Code), img.Base, nil, &s.walk)
	if !g.isBlockStart(img.Entry) {
		b.Fatalf("entry %#x does not start a block of the shared CFG", img.Entry)
	}
	cfg := Config{UninitSecret: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scanRoot("host/sha_1", g, cfg, img.Entry)
	}
}

// BenchmarkScanCorpus measures one ScanCorpus pass over the allocation
// gate's corpus at one worker.
func BenchmarkScanCorpus(b *testing.B) {
	images := scanTestCorpus(b, []string{"math", "sha_1"}, 24)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanCorpus(ctx, PolicyUninitSecret, images, 1); err != nil {
			b.Fatal(err)
		}
	}
}
