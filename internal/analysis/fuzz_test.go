package analysis

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/progen"
)

// FuzzCFGRecovery throws arbitrary bytes at the CFG recoverer. Whatever
// the input, recovery must not panic, and the structural invariants
// must hold: every block instruction round-trips through isa.Encode to
// the exact image bytes (the linear sweep only admits canonical slots),
// blocks are disjoint and in address order, successors land on block
// starts, the
// taint pass runs to completion on the recovered graph, a CFG
// recovered from a shared decode equals RecoverCFG's, and a scan task
// on the image's shared CFG ranks what Analyze ranks.
func FuzzCFGRecovery(f *testing.F) {
	p, _ := progen.GenerateGadget(1, progen.GadgetLeak)
	f.Add(p.Code)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	seed := make([]byte, 4*isa.InstrSize)
	seed[0*isa.InstrSize] = byte(isa.CMP)
	seed[1*isa.InstrSize] = byte(isa.JE)
	seed[2*isa.InstrSize] = byte(isa.RET)
	seed[3*isa.InstrSize] = byte(isa.HALT)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, code []byte) {
		const fuzzBase = uint64(0x10000)
		g := RecoverCFG(code, fuzzBase, fuzzBase)

		var prevEnd uint64
		for i := range g.Blocks {
			b := &g.Blocks[i]
			start := b.Start
			if startingAt(g, start) != b {
				t.Fatalf("block %d (%#x) is not the block BlockAt finds there", i, start)
			}
			if i > 0 && start < prevEnd {
				t.Fatalf("block %#x overlaps the previous block ending at %#x", start, prevEnd)
			}
			prevEnd = b.End()
			if len(b.Instrs) == 0 {
				t.Fatalf("empty block at %#x", start)
			}
			for j, in := range b.Instrs {
				var buf [isa.InstrSize]byte
				if err := in.Encode(buf[:]); err != nil {
					t.Fatalf("block %#x instr %d does not re-encode: %v", start, j, err)
				}
				off := int(start-fuzzBase) + j*isa.InstrSize
				for k := range buf {
					if buf[k] != code[off+k] {
						t.Fatalf("block %#x instr %d round-trip mismatch at byte %d", start, j, k)
					}
				}
			}
			for _, s := range b.Succs {
				if startingAt(g, s) == nil {
					t.Fatalf("block %#x successor %#x is not a block start", start, s)
				}
			}
		}

		// The whole pipeline must also hold up: taint analysis over the
		// same bytes, panic-free, and recovery from a shared decode that
		// matches RecoverCFG from every root the fuzzed image offers.
		rep := Analyze(code, fuzzBase, Config{TaintedRegs: []uint8{1}}, fuzzBase)
		for _, fd := range rep.Findings {
			if _, ok := g.InstrAt(fd.AccessPC); !ok {
				t.Fatalf("finding at %#x points outside the decoded image", fd.AccessPC)
			}
		}
		d := isa.DecodeSlots(code)
		checkSameCFG(t, recoverCFG(new(CFG), d, fuzzBase, []uint64{fuzzBase}, new(walk)), g)
		for _, b := range g.Blocks {
			checkSameCFG(t, recoverCFG(new(CFG), d, fuzzBase, []uint64{b.Start}, new(walk)), RecoverCFG(code, fuzzBase, b.Start))
		}

		// A scan task from every block start of the shared, rootless CFG
		// and from one mid-block PC ranks what Analyze from that root
		// ranks, on one reused scratch; and the summary rule (the shared
		// CFG's blocks plus one per valid root inside a block) counts the
		// blocks of the CFG from all those roots.
		var s scratch
		shared := recoverCFG(new(CFG), d, fuzzBase, nil, &s.walk)
		var roots []uint64
		for _, b := range shared.Blocks {
			roots = append(roots, b.Start)
		}
		for _, b := range shared.Blocks {
			if len(b.Instrs) > 1 {
				roots = append(roots, b.Start+isa.InstrSize)
				break
			}
		}
		cfg := Config{TaintedRegs: []uint8{1}, UninitSecret: true}
		blocks := len(shared.Blocks)
		for _, r := range roots {
			sameRanked(t, fmt.Sprintf("root %#x", r), s.scanRoot("fuzz", shared, cfg, r),
				RankFindings("fuzz", Analyze(code, fuzzBase, cfg, r)))
			if !shared.isBlockStart(r) {
				blocks++
			}
		}
		if all := RecoverCFG(code, fuzzBase, roots...); len(all.Blocks) != blocks {
			t.Fatalf("the CFG from %d roots has %d blocks, the summary rule counts %d", len(roots), len(all.Blocks), blocks)
		}
	})
}
