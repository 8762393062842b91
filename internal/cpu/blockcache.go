// The block-compilation tier: straight-line guest regions are translated
// once into host-side superblocks — pre-decoded instruction vectors,
// optionally ending in one exit — and executed by a dispatch loop
// (blockexec.go) that pays the fetch/decode, PC-maintenance and
// budget-check costs per *block* instead of per instruction. The tier is
// a host optimization, not a modelled structure: a block's body and exit
// run through the same retire kernel as Step, so Cycle, the PMU counters,
// speculation episodes, the store buffer and the predictors are
// byte-for-byte those of the single-step tier (oracle.RunTierDiff and the
// difftest ring pin this down, Snapshot field by Snapshot field).
//
// compileBlock reads guest code through the predecode cache
// (predecode.go), the core's one decoder, and cuts it by the op-table
// test step uses: an instruction whose class terminates — a control
// transfer, HALT or a serializing MFENCE/LFENCE/SYSCALL — is the block's
// exit, and anything else joins its body. A block therefore either ends
// in an exit or falls through to the instruction after its body (a full
// body, or code that stops decoding). Everything runs on the block tier
// except under an OnRetire observer; telemetry-enabled runs stay on it
// too — the kernel carries every hook site.
//
// A block also keeps the predecode cache's coherence rule: it records
// the write generation of every page its instructions span (at most two
// — blocks are ≤ maxBlockOps+1 instructions and InstrSize divides
// PageSize) and is served only while both are unchanged. A moved
// generation triggers revalidation: the block's instructions are read
// again through the predecode cache, and equal decodes (the encoding is
// canonical, so equal bytes) refresh the generations; otherwise the
// block recompiles. Stores executed *inside* a block re-check its own
// pages before the next cached decode is used, so RWX self-modifying
// code falls back cleanly mid-block (the kernel in exec.go).
package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

const (
	bcacheBits = 10
	bcacheSize = 1 << bcacheBits // 1024 direct-mapped block slots

	// maxBlockOps caps a block's straight-line body. Guest loops in this
	// codebase are short (attack kernels, progen blocks); 32 keeps worst-
	// case budget-fallback runs negligible while covering every hot loop.
	maxBlockOps = 32
)

// block is one compiled superblock. body holds the straight-line
// instructions and term the exit, which the block has when nretire >
// len(body).
type block struct {
	startPC uint64
	endPC   uint64 // fall-through PC after the last compiled instruction
	body    []isa.Instruction
	term    isa.Instruction
	nretire int // architectural instructions a full execution retires

	// Pages spanned by the block's instructions and their write
	// generations at compile/revalidate time. Single-page blocks set
	// pg1 = pg0 so the hot validity test is two unconditional compares.
	pg0, pg1   uint64
	gen0, gen1 uint64

	// succ caches the block executed after this one: [0] when the exit
	// fell through to endPC, [1] when it went anywhere else. Chained
	// lookups skip the cache index; validity is still gen-checked.
	succ [2]*block
	hits uint64
}

// compileBlock translates the straight-line region at pc. It returns nil
// when pc is unaligned or its instruction does not fetch and decode: the
// single-step path faults there at once with the exact architectural
// error, so such a PC is never hot.
func (c *CPU) compileBlock(pc uint64) *block {
	if pc%isa.InstrSize != 0 {
		// Corrupted control flow: only aligned PCs are block-compiled.
		return nil
	}
	in, err := c.decode(pc)
	if err != nil {
		return nil
	}
	// Refill a block Reset freed, keeping its body storage. Only Reset
	// frees blocks: one evicted or invalidated during a run may still be
	// reachable through another block's succ.
	b := c.spare
	if b != nil {
		c.spare = b.succ[0]
		*b = block{body: b.body[:0]}
	} else {
		b = new(block)
	}
	b.startPC, b.pg0 = pc, pc/mem.PageSize
	// Collect the body on the stack, then copy it once.
	var (
		body  [maxBlockOps]isa.Instruction
		nbody int
	)
	p := pc
	for {
		b.pg1 = p / mem.PageSize
		p += isa.InstrSize
		if opTab[in.Op].class.terminates() {
			b.term = in
			break
		}
		body[nbody] = in
		if nbody++; nbody >= maxBlockOps {
			break
		}
		if in, err = c.decode(p); err != nil {
			break
		}
	}
	b.endPC = p
	b.body = append(b.body, body[:nbody]...)
	b.nretire = int(p-pc) / isa.InstrSize
	b.gen0, b.gen1 = c.genTab[b.pg0], c.genTab[b.pg1]
	return b
}

// lookupBlock returns a valid compiled block for pc, revalidating or
// recompiling a stale slot, or nil when pc cannot be block-compiled.
func (c *CPU) lookupBlock(pc uint64) *block {
	i := int(pc/isa.InstrSize) & (bcacheSize - 1)
	slot := &c.bcache[i]
	if b := *slot; b != nil && b.startPC == pc {
		if c.genTab[b.pg0] == b.gen0 && c.genTab[b.pg1] == b.gen1 || c.revalidateBlock(b) {
			c.blkHits++
			b.hits++
			return b
		}
		c.blkInval++
	}
	b := c.compileBlock(pc)
	if b != nil {
		c.blkCompiled++
		c.blkSizes[b.nretire]++
		*slot = b
		c.bcacheHi = max(c.bcacheHi, i+1)
	}
	return b
}

// revalidateBlock reads a stale block's instructions again through the
// predecode cache (whose miss path re-walks execute permission, so a
// Protect flip is caught) and refreshes its generations when every one
// decodes as compiled — the page was written, but not under the block.
func (c *CPU) revalidateBlock(b *block) bool {
	p := b.startPC
	for i := range b.nretire {
		want := b.term
		if i < len(b.body) {
			want = b.body[i]
		}
		if in, err := c.decode(p); err != nil || in != want {
			return false
		}
		p += isa.InstrSize
	}
	b.gen0, b.gen1 = c.genTab[b.pg0], c.genTab[b.pg1]
	return true
}

// BlockStats reports the block tier's effectiveness counters. They are
// host-side metrics, deliberately not part of Snapshot: the PMU event
// catalogue feeds the HID feature set and the golden figure CSVs, which
// must not observe a host optimization.
type BlockStats struct {
	Compiled      uint64 // blocks translated
	Hits          uint64 // block executions served from the cache
	Invalidations uint64 // stale blocks that failed byte-revalidation
	// Sizes counts compilations by block size: Sizes[n] is how many
	// compiled blocks retire n instructions per full execution (at most
	// maxBlockOps; the array keeps spare slots). A fixed array so
	// BlockStats stays comparable; exact per-size counts let the
	// telemetry layer rebuild the block-size histogram with exact sums.
	Sizes [maxBlockOps + 3]uint64
}

// BlockStats returns the current block-cache counters.
func (c *CPU) BlockStats() BlockStats {
	return BlockStats{
		Compiled:      c.blkCompiled,
		Hits:          c.blkHits,
		Invalidations: c.blkInval,
		Sizes:         c.blkSizes,
	}
}

// BlockInfo describes one live block-cache entry (simdbg -blocks).
type BlockInfo struct {
	StartPC uint64
	EndPC   uint64
	Instrs  int // architectural instructions retired by a full execution
	// Exit is the exit's mnemonic (e.g. "jne", "lfence"), or
	// "fallthrough" for a block that ends without one.
	Exit  string
	Hits  uint64
	Valid bool // generations current at inspection time
}

// Blocks snapshots the live block cache, ordered by StartPC.
func (c *CPU) Blocks() []BlockInfo {
	var out []BlockInfo
	for _, b := range &c.bcache {
		if b == nil {
			continue
		}
		exit := "fallthrough"
		if b.nretire > len(b.body) {
			exit = b.term.Op.String()
		}
		out = append(out, BlockInfo{
			StartPC: b.startPC,
			EndPC:   b.endPC,
			Instrs:  b.nretire,
			Exit:    exit,
			Hits:    b.hits,
			Valid:   c.genTab[b.pg0] == b.gen0 && c.genTab[b.pg1] == b.gen1,
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].StartPC > out[j].StartPC; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
