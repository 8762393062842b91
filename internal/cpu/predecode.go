package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// The predecode cache is a host-side optimization, not a modelled
// structure: the simulated machine has no instruction cache and charges
// no cycles for fetch or decode, so memoizing the (Fetch, Decode) pair
// per PC changes nothing observable — not Cycle, not the PMU counters,
// not the data-cache statistics (cpu/equivalence_test.go and the
// experiments' TestDeterminism golden suite enforce this). What it does
// change is host throughput: retired and wrong-path execution revisit the
// same handful of PCs millions of times, and without the cache each visit
// pays a per-page permission walk plus a fully validating decode.
//
// The cache is one table per guest page, with a slot for every
// instruction-aligned offset in the page, and a page's table is allocated
// when a fetch from that page first decodes. Building a core therefore
// costs one pointer per page of memory, a core pays only for the code
// pages it runs, and no two aligned PCs share a slot however much code
// runs. An unaligned PC (reachable only through corrupted control flow)
// shares its aligned neighbour's slot; the tag tells the two apart.
//
// Coherence is generation-based rather than hook-based: mem.Memory bumps
// a per-page write generation on every store, loader write and Protect
// call, and a cached decode is served only while its page's generation is
// unchanged. That keeps ROP injection, image (re)mapping between runs,
// RWX self-modifying code and permission flips architecturally exact with
// a single uint64 comparison on the hot path. If the generation moved but
// the underlying bytes did not (a neighbouring store on the same page),
// the entry is revalidated by byte comparison and re-decoded with
// isa.DecodeFast — the bytes were already proven canonical.

// icacheEntry is one predecode slot. The tag is pc+1 so the zero value
// never matches a real PC (the all-ones PC cannot hold a whole
// instruction and is rejected by the fill path).
type icacheEntry struct {
	tag uint64 // pc+1; 0 = empty
	gen uint64 // page write generation at fill time
	in  isa.Instruction
	raw [isa.InstrSize]byte // fill-time bytes, for cheap revalidation
}

// icachePage is the predecode table of one guest page, indexed by
// (pc % mem.PageSize) / isa.InstrSize.
type icachePage [mem.PageSize / isa.InstrSize]icacheEntry

// maxInPageOff is the largest page offset at which a whole instruction
// still fits inside one page (InstrSize divides PageSize, so aligned
// fetches never straddle; only odd PCs reached through corrupted control
// flow can).
const maxInPageOff = mem.PageSize - isa.InstrSize

// fetchDecode is the predecode-cache hit test: it returns the cached
// decode for pc when the slot's tag matches and the containing page's
// write generation is unchanged. It is deliberately tiny — and free of
// the miss-path call — so it inlines into the Step and speculate loops
// (the Go inliner will not inline the combined form); on a miss the
// caller invokes fetchDecodeMiss. The icache and genTab tables have one
// entry per page of memory, so the one bounds test covers both.
func (c *CPU) fetchDecode(pc uint64) (isa.Instruction, bool) {
	if pg := pc / mem.PageSize; pg < uint64(len(c.icache)) && c.icache[pg] != nil {
		e := &c.icache[pg][pc%mem.PageSize/isa.InstrSize]
		if e.tag == pc+1 && e.gen == c.genTab[pg] {
			return e.in, true
		}
	}
	return isa.Instruction{}, false
}

// decode is fetchDecode with its miss path: the one read of guest code
// compileBlock and revalidateBlock make, so a block holds exactly the
// decodes Step would retire.
func (c *CPU) decode(pc uint64) (isa.Instruction, error) {
	if in, ok := c.fetchDecode(pc); ok {
		return in, nil
	}
	return c.fetchDecodeMiss(pc)
}

// fetchDecodeMiss fills (or refreshes) the predecode slot for pc: the
// first visit to a PC pays the full permission-checked fetch and
// validating decode here, and the first one in a page to decode
// allocates that page's table. A page-straddling pc takes the uncached
// Fetch+Decode path and leaves the cache alone.
func (c *CPU) fetchDecodeMiss(pc uint64) (isa.Instruction, error) {
	if pc&(mem.PageSize-1) > maxInPageOff {
		raw, err := c.Mem.Fetch(pc, isa.InstrSize)
		if err != nil {
			return isa.Instruction{}, err
		}
		return isa.Decode(raw)
	}
	raw, gen, err := c.Mem.FetchNoCopy(pc, isa.InstrSize)
	if err != nil {
		return isa.Instruction{}, err
	}
	// The fetch succeeded, so pc lies in memory and pg indexes icache.
	pg, slot := pc/mem.PageSize, pc%mem.PageSize/isa.InstrSize
	t := c.icache[pg]
	if t != nil {
		if e := &t[slot]; e.tag == pc+1 && e.raw == [isa.InstrSize]byte(raw) {
			// The page was written but these bytes were not: already
			// proven canonical, so skip revalidation.
			e.in = isa.DecodeFast(raw)
			e.gen = gen
			return e.in, nil
		}
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return isa.Instruction{}, err
	}
	if t == nil {
		t = new(icachePage)
		c.icache[pg] = t
	}
	t[slot] = icacheEntry{tag: pc + 1, gen: gen, in: in, raw: [isa.InstrSize]byte(raw)}
	return in, nil
}
