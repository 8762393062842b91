// Package branch implements the branch prediction structures the Spectre
// family mistrains: a pattern history table (PHT) of 2-bit saturating
// counters for conditional branches (Spectre v1 / bounds check bypass), a
// gshare variant with global history, a branch target buffer (BTB) for
// indirect branches (Spectre v2), and a return stack buffer (RSB) for
// returns (ret2spec / SpectreRSB, ref [20] in the paper).
package branch

// Counter2 is a 2-bit saturating counter. 0-1 predict not-taken,
// 2-3 predict taken.
type Counter2 uint8

// Predict reports the counter's current prediction.
func (c Counter2) Predict() bool { return c >= 2 }

// Update trains the counter toward the observed outcome.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// CondPredictor predicts conditional branch outcomes.
type CondPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// Reset forgets all training, returning the predictor to its
	// constructor's state.
	Reset()
}

// PHT is a direct-indexed pattern history table of 2-bit counters.
// Distinct branches that alias to the same entry share training state —
// which is exactly the property cross-address-space Spectre variants use,
// and which lets the CR-Spectre perturbation loops pollute the host's
// predictor state.
type PHT struct {
	table []Counter2
	mask  uint64
}

// NewPHT builds a PHT with the given number of entries (power of two).
func NewPHT(entries int) *PHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: PHT entries must be a positive power of two")
	}
	return &PHT{table: make([]Counter2, entries), mask: uint64(entries - 1)}
}

func (p *PHT) index(pc uint64) uint64 { return (pc >> 4) & p.mask }

// Predict implements CondPredictor.
func (p *PHT) Predict(pc uint64) bool { return p.table[p.index(pc)].Predict() }

// Update implements CondPredictor.
func (p *PHT) Update(pc uint64, taken bool) {
	i := p.index(pc)
	p.table[i] = p.table[i].Update(taken)
}

// Reset implements CondPredictor.
func (p *PHT) Reset() { clear(p.table) }

// Gshare is a global-history predictor: the PHT index is the branch PC
// XORed with a shift register of recent outcomes.
type Gshare struct {
	table   []Counter2
	mask    uint64
	history uint64
	bits    uint
}

// NewGshare builds a gshare predictor with the given table size (power of
// two) and history length in bits.
func NewGshare(entries int, historyBits uint) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: gshare entries must be a positive power of two")
	}
	return &Gshare{table: make([]Counter2, entries), mask: uint64(entries - 1), bits: historyBits}
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 4) ^ g.history) & g.mask
}

// Predict implements CondPredictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].Predict() }

// Update implements CondPredictor and shifts the outcome into the global
// history register.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].Update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.bits) - 1
}

// Reset implements CondPredictor: the table and the history register
// return to zero.
func (g *Gshare) Reset() {
	clear(g.table)
	g.history = 0
}

// BTB is a direct-mapped branch target buffer for indirect branches.
// Entries are tagged; with the full PC as tag two distinct branch sites
// can never share an entry, while a *partial* tag — what real parts use,
// and what NewBTBTagged builds — lets congruent sites alias. That
// aliasing is the mechanism of Spectre-v2 cross-training: an attacker
// trains a branch whose (index, tag) pair collides with the victim's
// site, injecting an arbitrary speculative target into it.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64
	// Partial-tag geometry: tag = (pc >> tagShift) & tagMask, with
	// fullTag selecting the exact-PC tag instead (no aliasing).
	tagShift uint
	tagMask  uint64
	fullTag  bool
}

// Default tagged-BTB geometry used by NewUnit: 512 entries with 2-bit
// partial tags, so sites whose PCs differ by exactly AliasStride bytes
// (or a multiple) collide on both index and tag.
const (
	DefaultBTBEntries = 512
	DefaultBTBTagBits = 2
)

// AliasStride returns the PC distance at which two branch sites are
// guaranteed congruent in a tagged BTB of the given geometry: one full
// wrap of the index (entries × the 16-byte instruction slot) times the
// tag space. Sites a multiple of this apart share index and tag.
func AliasStride(entries, tagBits int) uint64 {
	return (16 * uint64(entries)) << tagBits
}

// DefaultAliasStride is AliasStride for the NewUnit geometry.
var DefaultAliasStride = AliasStride(DefaultBTBEntries, DefaultBTBTagBits)

// NewBTB builds a full-tag BTB with the given number of entries (power
// of two): conflict misses exist, cross-training does not.
func NewBTB(entries int) *BTB {
	b := NewBTBTagged(entries, 0)
	b.fullTag = true
	return b
}

// NewBTBTagged builds a BTB with partial tags of the given width.
// tagBits 0 means index-only matching (any site with the same index
// aliases — the early-hardware model Spectre v2 originally exploited).
func NewBTBTagged(entries, tagBits int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: BTB entries must be a positive power of two")
	}
	if tagBits < 0 || tagBits > 56 {
		panic("branch: BTB tag bits out of range")
	}
	indexBits := uint(0)
	for 1<<indexBits < entries {
		indexBits++
	}
	return &BTB{
		tags:     make([]uint64, entries),
		targets:  make([]uint64, entries),
		valid:    make([]bool, entries),
		mask:     uint64(entries - 1),
		tagShift: 4 + indexBits,
		tagMask:  1<<uint(tagBits) - 1,
	}
}

func (b *BTB) index(pc uint64) uint64 { return (pc >> 4) & b.mask }

func (b *BTB) tag(pc uint64) uint64 {
	if b.fullTag {
		return pc
	}
	return (pc >> b.tagShift) & b.tagMask
}

// Aliases reports whether two branch sites share a BTB entry: training
// either one injects its target into the other's prediction.
func (b *BTB) Aliases(pc1, pc2 uint64) bool {
	return b.index(pc1) == b.index(pc2) && b.tag(pc1) == b.tag(pc2)
}

// Predict returns the predicted target for the indirect branch at pc.
func (b *BTB) Predict(pc uint64) (target uint64, ok bool) {
	i := b.index(pc)
	if b.valid[i] && b.tags[i] == b.tag(pc) {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the resolved target of the indirect branch at pc.
func (b *BTB) Update(pc, target uint64) {
	i := b.index(pc)
	b.tags[i], b.targets[i], b.valid[i] = b.tag(pc), target, true
}

// Reset invalidates every entry, keeping the geometry.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.targets)
	clear(b.valid)
}

// RSB is a fixed-depth return stack buffer. CALL pushes the return
// address; RET pops a prediction. A ROP chain executes many RETs with no
// matching CALLs, so the RSB underflows and mispredicts constantly — a
// micro-architectural fingerprint of CR-Spectre's injection phase, and
// the structure SpectreRSB-style variants mistrain deliberately.
type RSB struct {
	entries []uint64
	top     int // number of valid entries
}

// NewRSB builds an RSB of the given depth.
func NewRSB(depth int) *RSB {
	if depth <= 0 {
		panic("branch: RSB depth must be positive")
	}
	return &RSB{entries: make([]uint64, depth)}
}

// Push records a call's return address. On overflow the oldest entry is
// discarded (circular behaviour matching real hardware).
func (r *RSB) Push(ret uint64) {
	if r.top == len(r.entries) {
		copy(r.entries, r.entries[1:])
		r.top--
	}
	r.entries[r.top] = ret
	r.top++
}

// Pop returns the predicted return address, or ok=false on underflow.
func (r *RSB) Pop() (ret uint64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.entries[r.top], true
}

// Depth returns the number of valid entries currently stacked.
func (r *RSB) Depth() int { return r.top }

// Clear empties the RSB and zeroes its slots, as NewRSB leaves them.
func (r *RSB) Clear() {
	clear(r.entries)
	r.top = 0
}

// Stats aggregates prediction outcomes for the HPC event set.
type Stats struct {
	CondBranches  uint64 // conditional branches executed
	CondMispred   uint64 // conditional mispredictions
	Returns       uint64 // RET instructions executed
	ReturnMispred uint64 // RSB mispredictions (incl. underflow)
	Indirect      uint64 // indirect jumps/calls executed
	IndirectMiss  uint64 // BTB mispredictions
	Direct        uint64 // direct JMP/CALL (always predicted correctly)
}

// Unit bundles the predictor structures a core needs.
type Unit struct {
	Cond  CondPredictor
	BTB   *BTB
	RSB   *RSB
	Stats Stats
}

// NewUnit builds a default-sized prediction unit: 4096-entry PHT,
// tagged 512-entry BTB (2-bit partial tags — cross-trainable), 16-deep
// RSB.
func NewUnit() *Unit {
	return &Unit{Cond: NewPHT(4096), BTB: NewBTBTagged(DefaultBTBEntries, DefaultBTBTagBits), RSB: NewRSB(16)}
}

// NewGshareUnit builds a unit with a gshare conditional predictor.
func NewGshareUnit() *Unit {
	return &Unit{Cond: NewGshare(4096, 12), BTB: NewBTBTagged(DefaultBTBEntries, DefaultBTBTagBits), RSB: NewRSB(16)}
}

// ResetStats zeroes the unit's counters without losing training state.
func (u *Unit) ResetStats() { u.Stats = Stats{} }

// Reset forgets all training and zeroes the counters, keeping every
// table: the unit is then indistinguishable from a newly built one of
// the same predictor family and BTB geometry.
func (u *Unit) Reset() {
	u.Cond.Reset()
	u.BTB.Reset()
	u.RSB.Clear()
	u.Stats = Stats{}
}
