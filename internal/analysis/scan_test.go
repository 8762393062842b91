package analysis

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
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
	if !reflect.DeepEqual(got.Order, want.Order) {
		tb.Fatalf("Order: got %x, want %x", got.Order, want.Order)
	}
	for _, start := range want.Order {
		gb, wb := got.Blocks[start], want.Blocks[start]
		if gb == nil || gb.Start != wb.Start || !reflect.DeepEqual(gb.Instrs, wb.Instrs) ||
			!reflect.DeepEqual(gb.Succs, wb.Succs) || gb.Indirect != wb.Indirect || gb.Reachable != wb.Reachable {
			tb.Fatalf("block %#x: got %+v, want %+v", start, gb, wb)
		}
		if cap(gb.Instrs) != len(gb.Instrs) {
			tb.Fatalf("block %#x: Instrs has cap %d > len %d", start, cap(gb.Instrs), len(gb.Instrs))
		}
	}
	if len(got.Blocks) != len(want.Blocks) {
		tb.Fatalf("got %d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	if !reflect.DeepEqual(got.Roots, want.Roots) || !reflect.DeepEqual(got.IndirectSites, want.IndirectSites) ||
		!reflect.DeepEqual(got.InvalidTargets, want.InvalidTargets) || got.Truncated != want.Truncated {
		tb.Fatalf("graph fields differ: roots %x/%x, indirect %x/%x, invalid %x/%x, truncated %d/%d",
			got.Roots, want.Roots, got.IndirectSites, want.IndirectSites,
			got.InvalidTargets, want.InvalidTargets, got.Truncated, want.Truncated)
	}
}

// TestSharedDecodeCFGMatchesRecoverCFG: for every (image, root) task of
// speclint scan's corpus, the CFG ScanCorpus recovers from the image's
// shared decode equals RecoverCFG's from the bytes. All roots of an
// image are recovered from one decode before any is compared, so a
// recovery that wrote into the shared decode would show up.
func TestSharedDecodeCFGMatchesRecoverCFG(t *testing.T) {
	for _, im := range scanTestCorpus(t, nil, 48) {
		d := decodeImage(im.Img.Code)
		roots := imageRoots(im.Img)
		shared := make([]*CFG, len(roots))
		for i, r := range roots {
			shared[i] = recoverCFG(d, im.Img.Base, r)
		}
		for i, r := range roots {
			checkSameCFG(t, shared[i], RecoverCFG(im.Img.Code, im.Img.Base, r))
		}
	}
}

// TestScanCorpusAllocs is the static scan's allocation gate: each image
// is decoded once, and a root's pass allocates its CFG's blocks, the
// taint states it reaches and its findings, not a copy of the image.
func TestScanCorpusAllocs(t *testing.T) {
	const bound = 4 << 20
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

// BenchmarkTaintRoot measures the static pass of one scan task: CFG
// recovery from a shared decode and the taint worklist from one root
// of the sha_1 host, under the uninit-secret policy.
func BenchmarkTaintRoot(b *testing.B) {
	img := linkHost(b, "sha_1")
	d := decodeImage(img.Code)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := analyze(d, img.Base, Config{UninitSecret: true}, img.Entry)
		if rep.NumBlocks == 0 {
			b.Fatal("empty CFG")
		}
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
