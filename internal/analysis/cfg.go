package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Block is one basic block of recovered code: a maximal straight-line
// run of valid instruction slots entered only at its first instruction.
// Instruction i of the block sits at Start + i*isa.InstrSize.
type Block struct {
	Start  uint64
	Instrs []isa.Instruction
	// Succs holds the statically resolved successor block starts
	// (fall-through, direct branch targets, CALL target plus its return
	// site). Indirect control flow contributes no entries.
	Succs []uint64
	// Indirect marks a block terminated by CALLR, JMPR or RET — control
	// flow whose target the static analysis cannot resolve.
	Indirect bool
	// Reachable marks blocks reachable from a root over Succs edges;
	// the linear sweep also keeps unreachable-but-valid regions (dead
	// code, ROP gadget fodder, data that happens to decode).
	Reachable bool
}

// End returns the address one past the block's last instruction.
func (b *Block) End() uint64 { return b.Start + uint64(len(b.Instrs))*isa.InstrSize }

// Terminal returns the block's last instruction.
func (b *Block) Terminal() isa.Instruction { return b.Instrs[len(b.Instrs)-1] }

// CFG is the recovered control-flow graph of one code image.
type CFG struct {
	Base   uint64
	Blocks map[uint64]*Block
	// Order lists block starts in ascending address order.
	Order []uint64
	// Roots are the analysis entry points (image entry, symbols).
	Roots []uint64
	// IndirectSites lists the PCs of CALLR/JMPR/RET instructions —
	// targets the recovery marks unresolved rather than following.
	IndirectSites []uint64
	// InvalidTargets lists direct branch targets that are not valid
	// code: out of the image, mid-instruction (unaligned), or aimed at
	// a slot that does not decode canonically.
	InvalidTargets []uint64
	// Truncated is the number of ragged bytes after the last whole
	// instruction slot (a truncated final instruction).
	Truncated int

	slots []isa.SlotDecode
}

// NumInstrs returns the total instruction count across all blocks.
func (g *CFG) NumInstrs() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// BlockAt returns the block containing pc, if any.
func (g *CFG) BlockAt(pc uint64) (*Block, bool) {
	if (pc-g.Base)%isa.InstrSize != 0 {
		return nil, false
	}
	i := sort.Search(len(g.Order), func(i int) bool { return g.Order[i] > pc })
	if i == 0 {
		return nil, false
	}
	b := g.Blocks[g.Order[i-1]]
	if pc >= b.Start && pc < b.End() {
		return b, true
	}
	return nil, false
}

// InstrAt returns the instruction at pc when pc is an aligned, valid
// slot inside the image.
func (g *CFG) InstrAt(pc uint64) (isa.Instruction, bool) {
	i, ok := g.slotIndex(pc)
	if !ok || g.slots[i].Err != nil {
		return isa.Instruction{}, false
	}
	return g.slots[i].In, true
}

func (g *CFG) slotIndex(pc uint64) (int, bool) {
	if pc < g.Base || (pc-g.Base)%isa.InstrSize != 0 {
		return 0, false
	}
	i := int((pc - g.Base) / isa.InstrSize)
	if i >= len(g.slots) {
		return 0, false
	}
	return i, true
}

// validPC reports whether pc is an aligned slot that decodes canonically.
func (g *CFG) validPC(pc uint64) bool {
	i, ok := g.slotIndex(pc)
	return ok && g.slots[i].Err == nil
}

// decodedImage is one image's slot decode, shared read-only by every
// CFG recovered from it: a scan decodes each image once and recovers
// one CFG per root from the same slots. instrs repeats slots[i].In
// contiguously so every Block.Instrs can be a view of it rather than a
// copy.
type decodedImage struct {
	slots     []isa.SlotDecode
	instrs    []isa.Instruction
	truncated int
}

func decodeImage(code []byte) *decodedImage {
	slots, truncated := isa.DecodeSlots(code)
	instrs := make([]isa.Instruction, len(slots))
	for i := range slots {
		instrs[i] = slots[i].In
	}
	return &decodedImage{slots: slots, instrs: instrs, truncated: truncated}
}

// RecoverCFG rebuilds the control-flow graph of a code image loaded at
// base. Recovery combines a linear sweep (every aligned slot that
// decodes canonically is candidate code, so unreachable gadget material
// is kept) with recursive descent over direct control flow (JMP,
// conditional branches, CALL targets and their return sites) to compute
// reachability from the roots. Indirect flow (CALLR/JMPR/RET) is
// terminal: the sites are recorded as unresolved rather than guessed.
// CALL's successors are the callee entry and the return site — the
// standard static approximation that the callee returns; register state
// flowing across the return-site edge is the caller's pre-call state.
//
// Roots outside the image, unaligned, or aimed at invalid slots are
// ignored (and recorded in InvalidTargets), as are such direct branch
// targets — a branch into the middle of an instruction reads a shifted,
// non-canonical byte frame, which the fixed-width ISA rejects by
// construction.
func RecoverCFG(code []byte, base uint64, roots ...uint64) *CFG {
	return recoverCFG(decodeImage(code), base, roots...)
}

// recoverCFG is RecoverCFG over an existing decode, which it only
// reads. Block.Instrs are cap-limited views of d.instrs, and Succs views
// of one per-CFG array, so appending to either copies instead of
// writing into a neighbour.
func recoverCFG(d *decodedImage, base uint64, roots ...uint64) *CFG {
	slots := d.slots
	g := &CFG{Base: base, Truncated: d.truncated, slots: slots}
	n := len(slots)

	// Pass 1: leaders. A slot starts a block if it is a root, a direct
	// branch target, the slot after any control transfer, or the first
	// valid slot after invalid space (linear-sweep region starts).
	leader := make([]bool, n)
	var invalid map[uint64]bool
	markTarget := func(pc uint64) {
		if i, ok := g.slotIndex(pc); ok && slots[i].Err == nil {
			leader[i] = true
			return
		}
		if !invalid[pc] {
			if invalid == nil {
				invalid = map[uint64]bool{}
			}
			invalid[pc] = true
			g.InvalidTargets = append(g.InvalidTargets, pc)
		}
	}
	for _, r := range roots {
		if g.validPC(r) {
			g.Roots = append(g.Roots, r)
		}
		markTarget(r)
	}
	for i := 0; i < n; i++ {
		if slots[i].Err != nil {
			continue
		}
		if i == 0 || slots[i-1].Err != nil {
			leader[i] = true // region start under the linear sweep
		}
		in := slots[i].In
		op := in.Op
		switch {
		case op == isa.JMP || op == isa.CALL || op.IsCondBranch():
			markTarget(uint64(in.Imm))
		case op == isa.CALLR || op == isa.JMPR || op == isa.RET:
			g.IndirectSites = append(g.IndirectSites, base+uint64(i)*isa.InstrSize)
		}
		if op.IsBranch() || op == isa.HALT {
			if i+1 < n && slots[i+1].Err == nil {
				leader[i+1] = true
			}
		}
	}
	nb := 0
	for _, l := range leader {
		if l {
			nb++
		}
	}

	// Pass 2: block formation over each maximal valid run. Leaders are
	// visited in address order, so Order comes out sorted.
	blocks := make([]Block, 0, nb)
	g.Blocks = make(map[uint64]*Block, nb)
	g.Order = make([]uint64, 0, nb)
	for i := 0; i < n; i++ {
		if !leader[i] {
			continue
		}
		j := i
		for {
			op := slots[j].In.Op
			if op.IsBranch() || op == isa.HALT {
				break
			}
			if j+1 >= n || slots[j+1].Err != nil || leader[j+1] {
				break
			}
			j++
		}
		start := base + uint64(i)*isa.InstrSize
		blocks = append(blocks, Block{Start: start, Instrs: d.instrs[i : j+1 : j+1]})
		g.Blocks[start] = &blocks[len(blocks)-1]
		g.Order = append(g.Order, start)
	}

	// Pass 3: successor edges, at most two per block.
	succs := make([]uint64, 0, 2*nb)
	for k := range blocks {
		b := &blocks[k]
		term := b.Terminal()
		fall := b.End()
		lo := len(succs)
		addSucc := func(pc uint64) {
			if i, ok := g.slotIndex(pc); ok && leader[i] {
				succs = append(succs, pc)
			}
		}
		switch op := term.Op; {
		case op == isa.JMP:
			addSucc(uint64(term.Imm))
		case op.IsCondBranch():
			addSucc(uint64(term.Imm))
			addSucc(fall)
		case op == isa.CALL:
			addSucc(uint64(term.Imm))
			addSucc(fall)
		case op == isa.CALLR || op == isa.JMPR || op == isa.RET:
			b.Indirect = true
		case op == isa.HALT:
			// no successors
		default:
			addSucc(fall) // block split by a leader mid-run
		}
		if hi := len(succs); hi > lo {
			b.Succs = succs[lo:hi:hi]
		}
	}

	// Pass 4: reachability from the roots.
	work := append([]uint64(nil), g.Roots...)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		b, ok := g.BlockAt(pc)
		if !ok || b.Reachable {
			continue
		}
		b.Reachable = true
		work = append(work, b.Succs...)
	}
	slices.Sort(g.InvalidTargets)
	return g
}

// BlockDepths returns the breadth-first depth, in blocks, of every
// block start from the nearest root, or -1 for blocks no root reaches
// over direct edges. The exploitability ranking uses it as its
// reachability axis: a gadget two calls from an entry point is easier
// to steer execution into than one buried behind indirect flow.
func (g *CFG) BlockDepths() map[uint64]int {
	depth := make(map[uint64]int, len(g.Blocks))
	for _, start := range g.Order {
		depth[start] = -1
	}
	var frontier []uint64
	for _, r := range g.Roots {
		if b, ok := g.BlockAt(r); ok && depth[b.Start] == -1 {
			depth[b.Start] = 0
			frontier = append(frontier, b.Start)
		}
	}
	for d := 1; len(frontier) > 0; d++ {
		var next []uint64
		for _, pc := range frontier {
			for _, s := range g.Blocks[pc].Succs {
				if depth[s] == -1 {
					depth[s] = d
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return depth
}

// succPCs returns the instruction-level successors of the instruction
// at pc: the next instruction inside the block, or the block's Succs at
// its terminal. Used by witness-path search.
func (g *CFG) succPCs(pc uint64) []uint64 {
	b, ok := g.BlockAt(pc)
	if !ok {
		return nil
	}
	if next := pc + isa.InstrSize; next < b.End() {
		return []uint64{next}
	}
	return b.Succs
}

// path runs a breadth-first search from one PC to another over
// instruction-level edges, bounded by limit steps, and returns the PCs
// visited along the shortest route (inclusive of both ends).
func (g *CFG) path(from, to uint64, limit int) []uint64 {
	if from == to {
		return []uint64{from}
	}
	prev := map[uint64]uint64{from: from}
	frontier := []uint64{from}
	for depth := 0; depth < limit && len(frontier) > 0; depth++ {
		var next []uint64
		for _, pc := range frontier {
			for _, s := range g.succPCs(pc) {
				if _, seen := prev[s]; seen {
					continue
				}
				prev[s] = pc
				if s == to {
					var rev []uint64
					for at := to; ; at = prev[at] {
						rev = append(rev, at)
						if at == from {
							break
						}
					}
					out := make([]uint64, len(rev))
					for i, pc := range rev {
						out[len(rev)-1-i] = pc
					}
					return out
				}
				next = append(next, s)
			}
		}
		frontier = next
	}
	return nil
}

// Dump renders the CFG for debugging: one line per block with its
// address range, reachability and successors.
func (g *CFG) Dump() string {
	var b strings.Builder
	for _, start := range g.Order {
		blk := g.Blocks[start]
		mark := " "
		if blk.Reachable {
			mark = "*"
		}
		tail := ""
		if blk.Indirect {
			tail = " [indirect]"
		}
		fmt.Fprintf(&b, "%s %#x..%#x (%d instrs) -> %x%s\n",
			mark, blk.Start, blk.End(), len(blk.Instrs), blk.Succs, tail)
	}
	return b.String()
}
