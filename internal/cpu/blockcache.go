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
// compileBlock decodes guest bytes itself (mem.FetchNoCopy, isa.Decode)
// and routes each instruction by its op-table class, the same two tests
// step uses: a control transfer or HALT (opClass.terminates) is the
// block's exit, and a speculation barrier (opClass.barrier:
// MFENCE/LFENCE/SYSCALL) never enters a block — it ends the body before
// it and retires through Step, as does everything when an OnRetire
// observer is attached. A block therefore either ends in an exit or falls
// through to the instruction after its body. Telemetry-enabled runs stay
// on the block tier — the kernel carries every hook site.
//
// The one thing the tier shares with the predecode cache (predecode.go)
// is its coherence rule: a block records the write generation of every
// page its bytes span (at most two — blocks are ≤
// maxBlockOps instructions and InstrSize divides PageSize) and is served
// only while both are unchanged. A moved generation triggers
// byte-revalidation — the bytes were already proven canonical, so an
// equal compare refreshes the generations — and otherwise recompilation.
// Stores executed *inside* a block re-check its own pages before the next
// cached decode is used, so RWX self-modifying code falls back cleanly
// mid-block (the kernel in exec.go).
package cpu

import (
	"bytes"

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
// len(body). A block with nretire == 0 is a negative entry: the
// instruction at startPC cannot live in a block (a barrier or
// undecodable bytes), and the entry exists so hot fence/syscall sites
// don't pay a failed compile per visit; it revalidates by generation
// like any other block.
type block struct {
	startPC uint64
	endPC   uint64 // fall-through PC after the last compiled instruction
	body    []isa.Instruction
	term    isa.Instruction
	nretire int // architectural instructions a full execution retires

	// Pages spanned by the block's bytes and their write generations at
	// compile/revalidate time. Single-page blocks set pg1 = pg0 so the
	// hot validity test is two unconditional compares.
	pg0, pg1   uint64
	gen0, gen1 uint64
	raw        []byte // compile-time bytes, for cheap revalidation

	// succ caches the block executed after this one: [0] when the exit
	// fell through to endPC, [1] when it went anywhere else. Chained
	// lookups skip the cache index; validity is still gen-checked.
	succ [2]*block
	hits uint64
}

// compileBlock translates the straight-line region at pc. It returns nil
// when pc is unaligned or unfetchable (the single-step path will fault
// with the exact architectural error); otherwise it always returns a
// block — possibly a negative entry.
func (c *CPU) compileBlock(pc uint64) *block {
	if pc%isa.InstrSize != 0 {
		// Corrupted control flow: only aligned PCs are block-compiled.
		return nil
	}
	raw, gen, err := c.Mem.FetchNoCopy(pc, isa.InstrSize)
	if err != nil {
		return nil
	}
	// Refill a block Reset freed, keeping its body and raw storage. Only
	// Reset frees blocks: one evicted or invalidated during a run may
	// still be reachable through another block's succ.
	b := c.spare
	if b != nil {
		c.spare = b.succ[0]
		*b = block{body: b.body[:0], raw: b.raw[:0]}
	} else {
		b = new(block)
	}
	b.startPC, b.pg0 = pc, pc/mem.PageSize
	b.pg1, b.gen0, b.gen1 = b.pg0, gen, gen
	// Collect the body and bytes on the stack, then copy each once.
	var (
		body  [maxBlockOps]isa.Instruction
		code  [(maxBlockOps + 1) * isa.InstrSize]byte
		nbody int
	)
	p := pc
	for {
		in, derr := isa.Decode(raw)
		if derr != nil || opTab[in.Op].class.barrier() {
			break // retired by Step
		}
		if pg := p / mem.PageSize; pg != b.pg0 {
			b.pg1, b.gen1 = pg, gen
		}
		copy(code[p-pc:], raw)
		p += isa.InstrSize
		if opTab[in.Op].class.terminates() {
			b.term = in
			break
		}
		body[nbody] = in
		if nbody++; nbody >= maxBlockOps {
			break
		}
		if raw, gen, err = c.Mem.FetchNoCopy(p, isa.InstrSize); err != nil {
			break
		}
	}
	b.endPC = p
	b.body = append(b.body, body[:nbody]...)
	b.raw = append(b.raw, code[:p-pc]...)
	// Every compiled instruction, body and exit alike, copied its bytes.
	b.nretire = int(p-pc) / isa.InstrSize
	return b
}

// lookupBlock returns a valid compiled block for pc, revalidating or
// recompiling a stale slot, or nil when pc cannot be block-compiled at
// all (unaligned / unfetchable).
func (c *CPU) lookupBlock(pc uint64) *block {
	i := int(pc/isa.InstrSize) & (bcacheSize - 1)
	slot := &c.bcache[i]
	if b := *slot; b != nil && b.startPC == pc {
		if c.genTab[b.pg0] == b.gen0 && c.genTab[b.pg1] == b.gen1 {
			if b.nretire > 0 {
				c.blkHits++
				b.hits++
			}
			return b
		}
		if c.revalidateBlock(b) {
			if b.nretire > 0 {
				c.blkHits++
				b.hits++
			}
			return b
		}
		c.blkInval++
	}
	b := c.compileBlock(pc)
	if b != nil {
		if b.nretire > 0 {
			c.blkCompiled++
			if b.nretire < len(c.blkSizes) {
				c.blkSizes[b.nretire]++
			}
		}
		*slot = b
		c.bcacheHi = max(c.bcacheHi, i+1)
	}
	return b
}

// revalidateBlock re-fetches a stale block's bytes (re-walking execute
// permission, so a Protect flip is caught) and refreshes its generations
// when they are unchanged — the page was written, but not under the
// block. Negative entries hold no bytes and always recompile.
func (c *CPU) revalidateBlock(b *block) bool {
	if len(b.raw) == 0 {
		return false
	}
	n0 := uint64(len(b.raw))
	if b.pg1 != b.pg0 {
		n0 = (b.pg0+1)*mem.PageSize - b.startPC
	}
	raw0, gen0, err := c.Mem.FetchNoCopy(b.startPC, n0)
	if err != nil || !bytes.Equal(raw0, b.raw[:n0]) {
		return false
	}
	gen1 := gen0
	if b.pg1 != b.pg0 {
		raw1, g, err := c.Mem.FetchNoCopy(b.pg1*mem.PageSize, uint64(len(b.raw))-n0)
		if err != nil || !bytes.Equal(raw1, b.raw[n0:]) {
			return false
		}
		gen1 = g
	}
	b.gen0, b.gen1 = gen0, gen1
	return true
}

// BlockStats reports the block tier's effectiveness counters. They are
// host-side metrics, deliberately not part of Snapshot: the PMU event
// catalogue feeds the HID feature set and the golden figure CSVs, which
// must not observe a host optimization.
type BlockStats struct {
	Compiled      uint64 // blocks translated (excludes negative entries)
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
	// Exit is the exit's mnemonic (e.g. "jne"), "fallthrough" for a
	// block that ends without one, or "uncompilable" for a negative
	// entry.
	Exit  string
	Hits  uint64
	Valid bool // generations current at inspection time
}

// Blocks snapshots the live block cache, ordered by StartPC. Negative
// (uncompilable) entries are included with Instrs == 0.
func (c *CPU) Blocks() []BlockInfo {
	var out []BlockInfo
	for _, b := range &c.bcache {
		if b == nil {
			continue
		}
		exit := "fallthrough"
		switch {
		case b.nretire == 0:
			exit = "uncompilable"
		case b.nretire > len(b.body):
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
