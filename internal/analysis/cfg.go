package analysis

import (
	"fmt"
	"slices"
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
	Base uint64
	// Blocks lists the blocks in ascending address order; BlockAt finds
	// the one holding a PC.
	Blocks []Block
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

	dec *isa.Slots
	// blockOf maps each slot to the index in Blocks of the block holding
	// it, or -1 for a slot that is not valid code; succs backs every
	// block's Succs.
	blockOf []int32
	succs   []uint64
}

// NumInstrs returns the total instruction count across all blocks.
func (g *CFG) NumInstrs() int {
	n := 0
	for i := range g.Blocks {
		n += len(g.Blocks[i].Instrs)
	}
	return n
}

// BlockAt returns the block containing pc, if any.
func (g *CFG) BlockAt(pc uint64) (*Block, bool) {
	k, ok := g.blockIndex(pc)
	if !ok {
		return nil, false
	}
	return &g.Blocks[k], true
}

// blockIndex returns the index in Blocks of the block containing pc.
func (g *CFG) blockIndex(pc uint64) (int32, bool) {
	i, ok := g.slotIndex(pc)
	if !ok || g.blockOf[i] < 0 {
		return 0, false
	}
	return g.blockOf[i], true
}

// isBlockStart reports whether pc starts a block.
func (g *CFG) isBlockStart(pc uint64) bool {
	k, ok := g.blockIndex(pc)
	return ok && g.Blocks[k].Start == pc
}

// InstrAt returns the instruction at pc when pc is an aligned, valid
// slot inside the image.
func (g *CFG) InstrAt(pc uint64) (isa.Instruction, bool) {
	i, ok := g.slotIndex(pc)
	if !ok || !g.dec.Valid(i) {
		return isa.Instruction{}, false
	}
	return g.dec.Instrs[i], true
}

func (g *CFG) slotIndex(pc uint64) (int, bool) {
	if pc < g.Base || (pc-g.Base)%isa.InstrSize != 0 {
		return 0, false
	}
	i := (pc - g.Base) / isa.InstrSize
	if i >= uint64(len(g.dec.Instrs)) {
		return 0, false
	}
	return int(i), true
}

// validPC reports whether pc is an aligned slot that decodes canonically.
func (g *CFG) validPC(pc uint64) bool {
	i, ok := g.slotIndex(pc)
	return ok && g.dec.Valid(i)
}

// walk is the reusable working memory of recovery and of the CFG's
// searches: a scan worker keeps one for all its tasks, so a task
// allocates none of it.
type walk struct {
	leader         []bool
	depth          []int32
	frontier, next []int32
	prev           map[uint64]uint64
	pcs, nextPCs   []uint64
	route          []uint64
}

// resized returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
	return recoverCFG(new(CFG), isa.DecodeSlots(code), base, roots, new(walk))
}

// recoverCFG is RecoverCFG over an existing decode, which it only reads
// and which every CFG recovered from the image shares (a scan decodes
// each image once), into g, whose storage it reuses (a scan worker
// re-recovers into one CFG of its own); w is working memory.
// Block.Instrs are cap-limited views of d.Instrs, and Succs views of
// g.succs, so appending to either copies instead of writing into a
// neighbour.
func recoverCFG(g *CFG, d *isa.Slots, base uint64, roots []uint64, w *walk) *CFG {
	n := len(d.Instrs)
	g.Base, g.Truncated, g.dec = base, d.Truncated, d
	g.Roots, g.IndirectSites, g.InvalidTargets = g.Roots[:0], g.IndirectSites[:0], g.InvalidTargets[:0]

	// Pass 1: leaders. A slot starts a block if it is a root, a direct
	// branch target, the slot after any control transfer, or the first
	// valid slot after invalid space (linear-sweep region starts).
	leader := resized(w.leader, n)
	w.leader = leader
	markTarget := func(pc uint64) {
		if i, ok := g.slotIndex(pc); ok && d.Valid(i) {
			leader[i] = true
			return
		}
		g.InvalidTargets = append(g.InvalidTargets, pc)
	}
	for _, r := range roots {
		if g.validPC(r) {
			g.Roots = append(g.Roots, r)
		}
		markTarget(r)
	}
	for i := 0; i < n; i++ {
		if !d.Valid(i) {
			continue
		}
		if i == 0 || !d.Valid(i-1) {
			leader[i] = true // region start under the linear sweep
		}
		in := d.Instrs[i]
		op := in.Op
		switch {
		case op == isa.JMP || op == isa.CALL || op.IsCondBranch():
			markTarget(uint64(in.Imm))
		case op == isa.CALLR || op == isa.JMPR || op == isa.RET:
			g.IndirectSites = append(g.IndirectSites, base+uint64(i)*isa.InstrSize)
		}
		if op.IsBranch() || op == isa.HALT {
			if i+1 < n && d.Valid(i+1) {
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
	// visited in address order, so Blocks comes out sorted.
	g.Blocks = slices.Grow(g.Blocks[:0], nb)
	g.blockOf = slices.Grow(g.blockOf[:0], n)[:n]
	for i := 0; i < n; i++ {
		g.blockOf[i] = -1
	}
	for i := 0; i < n; i++ {
		if !leader[i] {
			continue
		}
		j := i
		for {
			op := d.Instrs[j].Op
			if op.IsBranch() || op == isa.HALT {
				break
			}
			if j+1 >= n || !d.Valid(j+1) || leader[j+1] {
				break
			}
			j++
		}
		k := int32(len(g.Blocks))
		for s := i; s <= j; s++ {
			g.blockOf[s] = k
		}
		g.Blocks = append(g.Blocks, Block{Start: base + uint64(i)*isa.InstrSize, Instrs: d.Instrs[i : j+1 : j+1]})
	}

	// Pass 3: successor edges, at most two per block. succs is sized up
	// front: every Succs is a view of it.
	if cap(g.succs) < 2*nb {
		g.succs = make([]uint64, 0, 2*nb)
	}
	succs := g.succs[:0]
	for k := range g.Blocks {
		b := &g.Blocks[k]
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
	g.succs = succs

	// Pass 4: reachability from the roots: a block is reachable when it
	// has a depth.
	for k, depth := range g.blockDepths(g.Roots, w) {
		g.Blocks[k].Reachable = depth >= 0
	}
	slices.Sort(g.InvalidTargets)
	g.InvalidTargets = slices.Compact(g.InvalidTargets)
	return g
}

// blockDepths returns the breadth-first depth, in blocks, of every
// block from the nearest of roots, by index in Blocks, or -1 for blocks
// no root reaches over direct edges, in w's storage: the result is
// valid until w's next search. The exploitability ranking uses it as
// its reachability axis: a gadget two calls from an entry point is
// easier to steer execution into than one buried behind indirect flow.
func (g *CFG) blockDepths(roots []uint64, w *walk) []int32 {
	depth := slices.Grow(w.depth[:0], len(g.Blocks))[:len(g.Blocks)]
	for k := range depth {
		depth[k] = -1
	}
	frontier, next := w.frontier[:0], w.next[:0]
	for _, r := range roots {
		if k, ok := g.blockIndex(r); ok && depth[k] == -1 {
			depth[k] = 0
			frontier = append(frontier, k)
		}
	}
	for d := int32(1); len(frontier) > 0; d++ {
		next = next[:0]
		for _, k := range frontier {
			for _, s := range g.Blocks[k].Succs {
				if sk, _ := g.blockIndex(s); depth[sk] == -1 {
					depth[sk] = d
					next = append(next, sk)
				}
			}
		}
		frontier, next = next, frontier
	}
	w.depth, w.frontier, w.next = depth, frontier, next
	return depth
}

// succPCs returns the instruction-level successors of the instruction
// at pc: the next instruction inside the block, held in one, or the
// block's Succs at its terminal. Used by witness-path search.
func (g *CFG) succPCs(pc uint64, one *[1]uint64) []uint64 {
	k, ok := g.blockIndex(pc)
	if !ok {
		return nil
	}
	b := &g.Blocks[k]
	if next := pc + isa.InstrSize; next < b.End() {
		one[0] = next
		return one[:]
	}
	return b.Succs
}

// path runs a breadth-first search from one PC to another over
// instruction-level edges, bounded by limit steps, and appends the PCs
// visited along the shortest route (inclusive of both ends) to dst. It
// returns nil when no route is found.
func (g *CFG) path(dst []uint64, from, to uint64, limit int, w *walk) []uint64 {
	if from == to {
		return append(dst, from)
	}
	if w.prev == nil {
		w.prev = map[uint64]uint64{}
	}
	prev := w.prev
	clear(prev)
	prev[from] = from
	frontier, next := append(w.pcs[:0], from), w.nextPCs[:0]
	defer func() { w.pcs, w.nextPCs = frontier, next }()
	var one [1]uint64
	for depth := 0; depth < limit && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, pc := range frontier {
			for _, s := range g.succPCs(pc, &one) {
				if _, seen := prev[s]; seen {
					continue
				}
				prev[s] = pc
				if s == to {
					out := dst
					for at := to; ; at = prev[at] {
						out = append(out, at)
						if at == from {
							break
						}
					}
					slices.Reverse(out[len(dst):])
					return out
				}
				next = append(next, s)
			}
		}
		frontier, next = next, frontier
	}
	return nil
}

// Dump renders the CFG for debugging: one line per block with its
// address range, reachability and successors.
func (g *CFG) Dump() string {
	var b strings.Builder
	for i := range g.Blocks {
		blk := &g.Blocks[i]
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
