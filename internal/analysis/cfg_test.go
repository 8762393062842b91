package analysis

import (
	"testing"

	"repro/internal/isa"
)

const base = uint64(0x10000)

// enc encodes a program laid out from base; branch targets are absolute.
func enc(t *testing.T, ins ...isa.Instruction) []byte {
	t.Helper()
	code := make([]byte, len(ins)*isa.InstrSize)
	for i, in := range ins {
		if err := in.Encode(code[i*isa.InstrSize:]); err != nil {
			t.Fatalf("encode %d (%v): %v", i, in, err)
		}
	}
	return code
}

func at(i int) uint64 { return base + uint64(i)*isa.InstrSize }

// startingAt returns the block of g that starts at pc, or nil.
func startingAt(g *CFG, pc uint64) *Block {
	if b, ok := g.BlockAt(pc); ok && b.Start == pc {
		return b
	}
	return nil
}

func TestRecoverCFGStraightLine(t *testing.T) {
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 4},
		isa.Instruction{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},
		isa.Instruction{Op: isa.HALT},
	), base, base)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1:\n%s", len(g.Blocks), g.Dump())
	}
	b := startingAt(g, base)
	if b == nil || len(b.Instrs) != 3 || len(b.Succs) != 0 || !b.Reachable {
		t.Fatalf("bad block: %+v", b)
	}
}

func TestRecoverCFGDiamond(t *testing.T) {
	// 0: cmpi r1,5
	// 1: je -> 4
	// 2: movi r2,1
	// 3: jmp -> 5
	// 4: movi r2,2
	// 5: halt
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.CMPI, Rs1: 1, Imm: 5},
		isa.Instruction{Op: isa.JE, Imm: int64(at(4))},
		isa.Instruction{Op: isa.MOVI, Rd: 2, Imm: 1},
		isa.Instruction{Op: isa.JMP, Imm: int64(at(5))},
		isa.Instruction{Op: isa.MOVI, Rd: 2, Imm: 2},
		isa.Instruction{Op: isa.HALT},
	), base, base)
	want := map[uint64][]uint64{
		at(0): {at(4), at(2)},
		at(2): {at(5)},
		at(4): {at(5)},
		at(5): nil,
	}
	if len(g.Blocks) != len(want) {
		t.Fatalf("blocks = %d, want %d:\n%s", len(g.Blocks), len(want), g.Dump())
	}
	for start, succs := range want {
		b := startingAt(g, start)
		if b == nil {
			t.Fatalf("missing block at %#x:\n%s", start, g.Dump())
		}
		if !b.Reachable {
			t.Errorf("block %#x unreachable", start)
		}
		if len(b.Succs) != len(succs) {
			t.Fatalf("block %#x succs = %x, want %x", start, b.Succs, succs)
		}
		seen := map[uint64]bool{}
		for _, s := range b.Succs {
			seen[s] = true
		}
		for _, s := range succs {
			if !seen[s] {
				t.Errorf("block %#x missing succ %#x", start, s)
			}
		}
	}
}

func TestRecoverCFGCallAndIndirect(t *testing.T) {
	// 0: call -> 3      (succs: callee and return site)
	// 1: callr r2       (indirect; block ends, site recorded)
	// 2: halt
	// 3: ret            (indirect terminal of the callee)
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.CALL, Imm: int64(at(3))},
		isa.Instruction{Op: isa.CALLR, Rs1: 2},
		isa.Instruction{Op: isa.HALT},
		isa.Instruction{Op: isa.RET},
	), base, base)
	b0 := startingAt(g, at(0))
	if b0 == nil || len(b0.Succs) != 2 {
		t.Fatalf("call block succs: %+v", b0)
	}
	b1 := startingAt(g, at(1))
	if b1 == nil || !b1.Indirect || len(b1.Succs) != 0 {
		t.Fatalf("callr block not marked indirect: %+v", b1)
	}
	b3 := startingAt(g, at(3))
	if b3 == nil || !b3.Indirect || !b3.Reachable {
		t.Fatalf("ret block: %+v", b3)
	}
	if len(g.IndirectSites) != 2 {
		t.Fatalf("indirect sites = %x, want [callr, ret]", g.IndirectSites)
	}
}

// TestRecoverCFGInvalidTargets: branches to mid-instruction offsets,
// outside the image, and into a non-decoding slot must be recorded as
// invalid, never followed.
func TestRecoverCFGInvalidTargets(t *testing.T) {
	code := enc(t,
		isa.Instruction{Op: isa.JE, Imm: int64(at(1) + 8)}, // mid-instruction
		isa.Instruction{Op: isa.JNE, Imm: int64(at(100))},  // past the image
		isa.Instruction{Op: isa.JMP, Imm: int64(at(3))},    // into a junk slot
		isa.Instruction{Op: isa.NOP},                       // corrupted below
		isa.Instruction{Op: isa.HALT},
	)
	code[3*isa.InstrSize] = 0xFF // junk opcode in slot 3
	g := RecoverCFG(code, base, base)
	if len(g.InvalidTargets) != 3 {
		t.Fatalf("invalid targets = %x, want 3 entries", g.InvalidTargets)
	}
	for _, want := range []uint64{at(1) + 8, at(100), at(3)} {
		found := false
		for _, got := range g.InvalidTargets {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing invalid target %#x in %x", want, g.InvalidTargets)
		}
	}
	if _, ok := g.BlockAt(at(3)); ok {
		t.Error("junk slot formed a block")
	}
}

// TestRecoverCFGLinearSweep: valid code unreachable from the roots (ROP
// gadget fodder) is still swept into blocks, just not marked reachable.
func TestRecoverCFGLinearSweep(t *testing.T) {
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.HALT},
		isa.Instruction{Op: isa.POP, Rd: 3}, // dead: never jumped to
		isa.Instruction{Op: isa.RET},
	), base, base)
	dead := startingAt(g, at(1))
	if dead == nil {
		t.Fatalf("linear sweep missed the dead region:\n%s", g.Dump())
	}
	if dead.Reachable {
		t.Error("dead region marked reachable")
	}
	if !startingAt(g, at(0)).Reachable {
		t.Error("entry block not reachable")
	}
}

func TestRecoverCFGTruncatedTail(t *testing.T) {
	code := enc(t, isa.Instruction{Op: isa.HALT})
	code = append(code, 0x01, 0x02, 0x03) // ragged tail
	g := RecoverCFG(code, base, base)
	if g.Truncated != 3 {
		t.Fatalf("truncated = %d, want 3", g.Truncated)
	}
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
}

func TestCFGPath(t *testing.T) {
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.CMPI, Rs1: 1, Imm: 5},
		isa.Instruction{Op: isa.JE, Imm: int64(at(4))},
		isa.Instruction{Op: isa.NOP},
		isa.Instruction{Op: isa.NOP},
		isa.Instruction{Op: isa.HALT},
	), base, base)
	p := g.path(nil, at(0), at(4), 16, new(walk))
	if len(p) == 0 || p[0] != at(0) || p[len(p)-1] != at(4) {
		t.Fatalf("path = %x", p)
	}
	// The shortest route takes the branch edge, not the fall-through.
	if len(p) != 3 {
		t.Fatalf("path length = %d (%x), want 3 (0 -> je -> 4)", len(p), p)
	}
	if g.path(nil, at(4), at(0), 16, new(walk)) != nil {
		t.Error("found a path against edge direction")
	}
}

func TestBlockAtAndInstrAt(t *testing.T) {
	g := RecoverCFG(enc(t,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 9},
		isa.Instruction{Op: isa.HALT},
	), base, base)
	if b, ok := g.BlockAt(at(1)); !ok || b.Start != base {
		t.Fatalf("BlockAt(%#x) = %+v, %v", at(1), b, ok)
	}
	if _, ok := g.BlockAt(at(1) + 4); ok {
		t.Error("BlockAt accepted an unaligned pc")
	}
	in, ok := g.InstrAt(at(0))
	if !ok || in.Op != isa.MOVI {
		t.Fatalf("InstrAt = %v, %v", in, ok)
	}
	if _, ok := g.InstrAt(at(7)); ok {
		t.Error("InstrAt accepted an out-of-image pc")
	}
}
