// Package cpu implements the simulated speculative core. The model is
// in-order issue with out-of-order completion (a register scoreboard):
// loads are non-blocking and set a ready-at cycle on their destination;
// consumers stall. CMP propagates operand readiness into the flags, so a
// conditional branch whose comparison depends on an in-flight load is
// *unresolved* — the core predicts it and, when the prediction is wrong,
// executes the wrong path speculatively until the data returns. The
// squash restores registers and memory but NOT cache fills, which is the
// micro-architectural vulnerability the Spectre attack exploits.
package cpu

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Config sets the core's micro-architectural parameters.
type Config struct {
	// SpecWindow caps the number of instructions executed in one
	// wrong-path speculation episode (a ROB-size proxy).
	SpecWindow int
	// MispredictPenalty is the cycle cost charged after a branch
	// resolves against its prediction (pipeline refill). It also extends
	// the speculation deadline: in-flight wrong-path work continues
	// while the pipeline drains.
	MispredictPenalty uint64
	// SpeculationEnabled turns wrong-path execution on. Disabling it
	// models a fully-fenced core (the blunt Spectre mitigation) and is
	// the headline ablation: the attack's leak rate drops to zero.
	SpeculationEnabled bool
	// SquashCacheEffects models an InvisiSpec-style defense (paper
	// ref [18]): cache lines filled by squashed wrong-path loads are
	// invalidated at squash, hiding speculation from the cache.
	SquashCacheEffects bool
	// FenceConditional models Context-Sensitive Fencing (paper ref
	// [19]): microcode injects a fence after every conditional branch,
	// so unresolved conditional branches stall instead of running the
	// wrong path. Return- and indirect-branch speculation (the RSB and
	// BTB variants) is deliberately unaffected — reproducing the known
	// incompleteness of PHT-only Spectre mitigations.
	FenceConditional bool
	// FlushCost and FenceCost are the cycle costs of CLFLUSH and
	// MFENCE/LFENCE beyond their serialising effect.
	FlushCost uint64
	FenceCost uint64
	// PrivilegedFlush models the paper's countermeasure §IV: when set,
	// CLFLUSH and MFENCE fault in user code, disabling the dynamic
	// perturbation mechanism (and flush+reload).
	PrivilegedFlush bool
	// NoisePeriod injects co-tenant cache interference: every this many
	// cycles one pseudo-random set is swept in each cache level (0 = no
	// interference). It makes the covert channel lossy, which is what
	// the attack's multi-round voting receiver exists to overcome.
	NoisePeriod uint64
	// NoiseSeed seeds the interference pattern (deterministic).
	NoiseSeed int64
	// Predictor selects the conditional-branch predictor: "" or "pht"
	// for the 2-bit pattern history table, "gshare" for the
	// global-history variant.
	Predictor string
	// NextLinePrefetch enables the hierarchy's sequential prefetcher.
	NextLinePrefetch bool
	// BTBEntries / BTBTagBits override the branch target buffer geometry
	// (0 = the branch package defaults: 512 entries, 2-bit partial tags).
	// Smaller tables and narrower tags make cross-site aliasing — the
	// Spectre-v2 injection surface — more frequent. BTBTagBits > 0 sets
	// the partial-tag width, -1 selects index-only matching (tagless,
	// maximal aliasing), -2 selects full-PC tags (no aliasing possible).
	BTBEntries int
	BTBTagBits int
	// Retpoline models a retpoline-compiled workload at the core level:
	// unresolved indirect branches never speculate at a BTB-predicted
	// target (retired or inside an episode) — the thunk's capture loop
	// pins the transient path to a harmless spin. Timing-only; the BTB
	// still trains for the counters.
	Retpoline bool
	// DisableStoreBypass models SSBD (speculative store bypass disable):
	// retired loads never speculatively ignore a pending store whose
	// data is still in flight, closing the Spectre-v4 window.
	DisableStoreBypass bool
	// ForceWrongPath is the SpecFuzz-style speculation-exposure mode:
	// every conditional branch whose flags are still in flight executes
	// its wrong path speculatively even when the predictor guessed
	// right, so both directions of every unresolved branch are covered
	// without predictor training. Used by the gadget-hunting confirm
	// harness (internal/analysis); never by the timing experiments — the
	// forced episodes leave real cache fills behind, which is the point.
	ForceWrongPath bool
	// NoBlocks disables the block-compilation tier: Run retires strictly
	// one instruction per dispatch, through the predecode cache. A
	// field-bisection escape hatch and the tier-diff reference; changes
	// host throughput only, never simulated behavior.
	NoBlocks bool
}

// DefaultConfig returns the baseline core configuration used by the
// experiments.
func DefaultConfig() Config {
	return Config{
		SpecWindow:         64,
		MispredictPenalty:  24,
		SpeculationEnabled: true,
		FlushCost:          12,
		FenceCost:          4,
	}
}

// SyscallFn handles a SYSCALL instruction. The syscall number is in R0
// and arguments in R1..R3 by convention; results go in R0.
type SyscallFn func(c *CPU) error

// Fault wraps an execution fault with the PC at which it occurred.
type Fault struct {
	PC  uint64
	Err error
}

func (f *Fault) Error() string { return fmt.Sprintf("cpu: fault at pc=%#x: %v", f.PC, f.Err) }

// Unwrap exposes the underlying cause (e.g. *mem.Fault).
func (f *Fault) Unwrap() error { return f.Err }

// CPU is the architectural plus micro-architectural state of one core.
type CPU struct {
	Regs  [isa.NumRegs]uint64
	PC    uint64
	Cycle uint64

	Mem    *mem.Memory
	Caches *cache.Hierarchy
	BP     *branch.Unit

	// OnSyscall handles SYSCALL; nil means SYSCALL faults.
	OnSyscall SyscallFn
	// OnRetire, when set, observes every retired instruction (tracers,
	// debuggers). It runs after architectural state is updated.
	OnRetire func(pc uint64, in isa.Instruction)

	cfg    Config
	halted bool

	flagZ  bool // last CMP: equal
	flagLT bool // last CMP: less-than, signed
	flagB  bool // last CMP: below, unsigned

	regReady   [isa.NumRegs]uint64 // cycle at which each register's value is available
	flagsReady uint64              // cycle at which the flags are available

	noiseNext uint64 // next cycle at which interference evicts a line
	noiseLCG  uint64 // interference PRNG state

	// icache is the host-side predecode cache (see predecode.go), one
	// table per page of Mem, nil until a fetch from the page decodes;
	// genTab is the memory's live per-page write-generation view used for
	// its coherence check.
	icache []*icachePage
	genTab []uint64

	instret     uint64
	loads       uint64
	stores      uint64
	specInstr   uint64
	specLoads   uint64
	squashes    uint64
	flushes     uint64
	fences      uint64
	syscalls    uint64
	stallCycles uint64

	// tel, when non-nil, receives typed micro-architectural events. Every
	// hook site guards with a single nil check; hooks observe only and
	// never change timing or architectural state (see package telemetry).
	tel *telemetry.Recorder
	// telRetire is set when tel stores retirements, so the retire kernel
	// emits one KindRetire per instruction. Otherwise retirements are
	// count-only: telFlush adds the instret delta since telInstret to tel
	// when Run or Step returns and before a re-attach or Reset.
	telRetire  bool
	telInstret uint64
	// [probeLo,probeHi) is the registered covert-channel probe window:
	// loads touching it emit KindCovertProbe. [smashLo,smashHi) is the
	// watched saved-return-address slot: plain stores overlapping it emit
	// KindStackSmash. All zero when unset.
	probeLo, probeHi uint64
	smashLo, smashHi uint64

	// Speculative-store-bypass state (Spectre v4, see ssb.go): stores
	// whose data register was still in flight at retire, against which a
	// younger load may speculatively read the stale memory contents.
	pendingStores []pendingStore
	bypasses      uint64 // store-bypass wrong-path episodes launched
	indirectSpecs uint64 // episodes launched at a BTB-predicted target

	// Block-compilation tier (blockcache.go / blockexec.go).
	blocksOff   bool
	blkCompiled uint64
	blkHits     uint64
	blkInval    uint64
	blkSizes    [maxBlockOps + 3]uint64 // compilations by retired-instruction count
	bcache      [bcacheSize]*block
	bcacheHi    int // bcache[bcacheHi:] has stayed empty since Reset
	// spare heads the blocks Reset took out of bcache, linked through
	// succ[0]; compileBlock refills one before it allocates a block.
	spare *block

	// units is every branch unit the core has built, one per predictor
	// family and BTB geometry; Reset hands out the matching one.
	units []keptUnit

	// stopCycle is Run's cycle horizon (RunUntilCycle): execution stops
	// at the first instruction whose retirement puts Cycle at or past
	// it. MaxUint64 (the value outside RunUntilCycle) disables the check.
	stopCycle uint64

	// specScratch is the pooled wrong-path episode state: speculation is
	// not reentrant, so one reusable specState (and its store-buffer map)
	// serves every episode — the hot loop allocates nothing (the
	// AllocsPerRun gate in block_test.go).
	specScratch specState
}

// New builds a core over the given memory with a default cache hierarchy
// and branch unit.
func New(m *mem.Memory, cfg Config) *CPU {
	c := new(CPU)
	c.Reset(m, cfg)
	return c
}

// Reset returns the core to exactly the state New(m, cfg) builds while
// keeping its allocations: the cache line arrays, the branch units (one
// per predictor family and BTB geometry the core has run; cfg's is reset
// in place), the predecode tables (kept while m has as many pages as the
// previous memory), the compiled blocks' storage and the episode and
// store-buffer scratch. Hooks, telemetry, probe and smash windows are
// detached like on a new core.
//
// m is typically the previous memory after mem.Memory.Reset, whose write
// generations start again at zero; a kept predecode slot or compiled
// block could then match a different program at the same PC and
// generation, so every one is dropped, the blocks onto the free list
// compileBlock refills. The cache hierarchy is reset in place: a core
// sharing its hierarchy with another (vm.CoExec) empties both.
func (c *CPU) Reset(m *mem.Memory, cfg Config) {
	if c.tel != nil {
		c.telFlush()
	}
	bp := c.unit(cfg)
	spare := c.spare
	for _, b := range c.bcache[:c.bcacheHi] {
		if b != nil {
			b.succ = [2]*block{spare}
			spare = b
		}
	}
	caches := c.Caches
	if caches == nil {
		caches = cache.DefaultHierarchy()
	} else {
		caches.Reset()
	}
	caches.NextLinePrefetch = cfg.NextLinePrefetch
	icache := c.icache
	if len(icache) == len(m.PageGens()) {
		for _, t := range icache {
			if t != nil {
				*t = icachePage{}
			}
		}
	} else {
		icache = make([]*icachePage, len(m.PageGens()))
	}
	store, filled, pending := c.specScratch.store, c.specScratch.filled[:0], c.pendingStores[:0]
	clear(store)

	*c = CPU{
		Mem:           m,
		Caches:        caches,
		BP:            bp,
		cfg:           cfg,
		icache:        icache,
		genTab:        m.PageGens(),
		pendingStores: pending,
		blocksOff:     cfg.NoBlocks,
		spare:         spare,
		units:         c.units,
		stopCycle:     ^uint64(0),
	}
	c.specScratch.store, c.specScratch.filled = store, filled
	if cfg.NoisePeriod > 0 {
		c.noiseNext = cfg.NoisePeriod
		c.noiseLCG = uint64(cfg.NoiseSeed)*6364136223846793005 + 1442695040888963407
	}
}

// keptUnit is a branch unit a core has built, under the predictor
// family and BTB geometry that select it.
type keptUnit struct {
	gshare           bool
	entries, tagBits int
	bp               *branch.Unit
}

// unit returns the core's branch unit for cfg's predictor family and BTB
// geometry, reset, building and keeping one the first time the core runs
// that geometry.
func (c *CPU) unit(cfg Config) *branch.Unit {
	gshare := cfg.Predictor == "gshare"
	for _, u := range c.units {
		if u.gshare == gshare && u.entries == cfg.BTBEntries && u.tagBits == cfg.BTBTagBits {
			u.bp.Reset()
			return u.bp
		}
	}
	bp := newBranchUnit(cfg)
	c.units = append(c.units, keptUnit{gshare, cfg.BTBEntries, cfg.BTBTagBits, bp})
	return bp
}

// newBranchUnit builds the prediction unit cfg selects.
func newBranchUnit(cfg Config) *branch.Unit {
	bp := branch.NewUnit()
	if cfg.Predictor == "gshare" {
		bp = branch.NewGshareUnit()
	}
	if cfg.BTBEntries != 0 || cfg.BTBTagBits != 0 {
		entries := cfg.BTBEntries
		if entries == 0 {
			entries = branch.DefaultBTBEntries
		}
		switch tagBits := cfg.BTBTagBits; {
		case tagBits <= -2:
			bp.BTB = branch.NewBTB(entries)
		case tagBits == -1:
			bp.BTB = branch.NewBTBTagged(entries, 0)
		case tagBits == 0:
			bp.BTB = branch.NewBTBTagged(entries, branch.DefaultBTBTagBits)
		default:
			bp.BTB = branch.NewBTBTagged(entries, tagBits)
		}
	}
	return bp
}

// interfere models bursty co-tenant cache pressure: whenever the noise
// period elapses, one pseudo-randomly chosen set in each level is swept
// (a streaming neighbour blasting through its ways), deterministic under
// the seed.
func (c *CPU) interfere() {
	for c.noiseNext != 0 && c.Cycle >= c.noiseNext {
		c.noiseNext += c.cfg.NoisePeriod
		for li, lvl := range []*cache.Cache{c.Caches.L1, c.Caches.L2} {
			c.noiseLCG = c.noiseLCG*6364136223846793005 + 1442695040888963407
			sets, ways := lvl.Geometry()
			set := (c.noiseLCG >> 16) % sets
			for w := 0; w < ways; w++ {
				if lvl.EvictAt(set, w) && c.tel != nil {
					c.tel.Emit(telemetry.Event{
						Kind: telemetry.KindCacheEvict, Level: uint8(li + 1),
						Cycle: c.Cycle, Addr: set,
					})
				}
			}
		}
	}
}

// AttachTelemetry connects an event recorder to the core and its cache
// hierarchy. Pass nil to detach. The hierarchy's event clock points at
// the core's cycle counter so cache events carry core time (speculate
// temporarily repoints it at the episode-local clock).
//
// The recorder is asked once whether it stores retirements. If it only
// counts them, the core counts them itself (its instret) and adds the
// tally when Run or Step returns, so a retirement costs no call. The
// previous recorder first receives the retirements it has not yet been
// told of.
func (c *CPU) AttachTelemetry(r *telemetry.Recorder) {
	if c.tel != nil {
		c.telFlush()
	}
	c.tel = r
	c.telRetire = r != nil && r.Stores(telemetry.KindRetire)
	c.telInstret = c.instret
	c.Caches.Tel = r
	if r != nil {
		c.Caches.Clock = &c.Cycle
	} else {
		c.Caches.Clock = nil
	}
}

// Telemetry returns the attached recorder (nil when disabled).
func (c *CPU) Telemetry() *telemetry.Recorder { return c.tel }

// SetProbeWindow registers [lo,hi) as the covert-channel probe array;
// loads inside it (retired or speculative) emit KindCovertProbe events.
func (c *CPU) SetProbeWindow(lo, hi uint64) { c.probeLo, c.probeHi = lo, hi }

// SetSmashWatch registers [addr,addr+size) as the watched return-address
// slot; plain stores overlapping it emit KindStackSmash events.
func (c *CPU) SetSmashWatch(addr, size uint64) { c.smashLo, c.smashHi = addr, addr+size }

// SetDefenses flips the speculation-defense knobs on a live core, taking
// effect at the next retired instruction: wrong-path execution,
// InvisiSpec-style squash rollback, conditional-branch fencing, and
// privileged CLFLUSH/MFENCE. It models a defender switching mitigations
// mid-run (the response a detection system would trigger); structural
// knobs — predictor family, noise, costs, window — stay as configured at
// New. None of these switches may change architectural results, which
// the differential oracle's transition tests pin down.
func (c *CPU) SetDefenses(speculation, invisiSpec, fenceConditional, privilegedFlush bool) {
	c.cfg.SpeculationEnabled = speculation
	c.cfg.SquashCacheEffects = invisiSpec
	c.cfg.FenceConditional = fenceConditional
	c.cfg.PrivilegedFlush = privilegedFlush
}

// Config returns the core's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Halted reports whether HALT (or a SysExit handler) stopped the core.
func (c *CPU) Halted() bool { return c.halted }

// Flags returns the architectural comparison flags (zero, signed
// less-than, unsigned below). External checkers — the differential
// oracle in particular — need them; they are not part of Snapshot
// because goldens predate them.
func (c *CPU) Flags() (z, lt, b bool) { return c.flagZ, c.flagLT, c.flagB }

// Halt stops the core; used by syscall handlers implementing exit.
func (c *CPU) Halt() { c.halted = true }

// Resume clears the halted flag (used when chaining program executions).
func (c *CPU) Resume() { c.halted = false }

// Instret returns the number of retired (architectural) instructions.
func (c *CPU) Instret() uint64 { return c.instret }

// IPC returns retired instructions per cycle so far.
func (c *CPU) IPC() float64 {
	if c.Cycle == 0 {
		return 0
	}
	return float64(c.instret) / float64(c.Cycle)
}

// Snapshot is a point-in-time copy of every event counter the PMU can
// observe. Events are monotonic; the PMU samples by differencing.
type Snapshot struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	L1Accesses uint64
	L1Misses   uint64
	L1Evicts   uint64
	L1Flushes  uint64
	L2Accesses uint64
	L2Misses   uint64
	L2Evicts   uint64
	L2Flushes  uint64

	CondBranches  uint64
	CondMispred   uint64
	Returns       uint64
	ReturnMispred uint64
	Indirect      uint64
	IndirectMiss  uint64
	Direct        uint64

	SpecInstructions uint64
	SpecLoads        uint64
	Squashes         uint64
	// SpecBypasses counts Spectre-v4 store-bypass episodes: a retired
	// load speculatively ignored a pending store with in-flight data.
	SpecBypasses uint64
	// IndirectSpecTargets counts wrong-path episodes entered at a
	// BTB-predicted target — the Spectre-v2 injection fingerprint.
	IndirectSpecTargets uint64

	Flushes     uint64 // CLFLUSH instructions retired
	Fences      uint64 // MFENCE/LFENCE instructions retired
	Syscalls    uint64
	StallCycles uint64
}

// Snapshot captures the current counter values.
func (c *CPU) Snapshot() Snapshot {
	l1 := c.Caches.L1.Stats()
	l2 := c.Caches.L2.Stats()
	bs := c.BP.Stats
	return Snapshot{
		Cycles:              c.Cycle,
		Instructions:        c.instret,
		Loads:               c.loads,
		Stores:              c.stores,
		L1Accesses:          l1.Accesses,
		L1Misses:            l1.Misses,
		L1Evicts:            l1.Evicts,
		L1Flushes:           l1.Flushes,
		L2Accesses:          l2.Accesses,
		L2Misses:            l2.Misses,
		L2Evicts:            l2.Evicts,
		L2Flushes:           l2.Flushes,
		CondBranches:        bs.CondBranches,
		CondMispred:         bs.CondMispred,
		Returns:             bs.Returns,
		ReturnMispred:       bs.ReturnMispred,
		Indirect:            bs.Indirect,
		IndirectMiss:        bs.IndirectMiss,
		Direct:              bs.Direct,
		SpecInstructions:    c.specInstr,
		SpecLoads:           c.specLoads,
		Squashes:            c.squashes,
		SpecBypasses:        c.bypasses,
		IndirectSpecTargets: c.indirectSpecs,
		Flushes:             c.flushes,
		Fences:              c.fences,
		Syscalls:            c.syscalls,
		StallCycles:         c.stallCycles,
	}
}

// Sub returns the per-event difference s - prev (event deltas over a
// sampling interval).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Cycles:              s.Cycles - prev.Cycles,
		Instructions:        s.Instructions - prev.Instructions,
		Loads:               s.Loads - prev.Loads,
		Stores:              s.Stores - prev.Stores,
		L1Accesses:          s.L1Accesses - prev.L1Accesses,
		L1Misses:            s.L1Misses - prev.L1Misses,
		L1Evicts:            s.L1Evicts - prev.L1Evicts,
		L1Flushes:           s.L1Flushes - prev.L1Flushes,
		L2Accesses:          s.L2Accesses - prev.L2Accesses,
		L2Misses:            s.L2Misses - prev.L2Misses,
		L2Evicts:            s.L2Evicts - prev.L2Evicts,
		L2Flushes:           s.L2Flushes - prev.L2Flushes,
		CondBranches:        s.CondBranches - prev.CondBranches,
		CondMispred:         s.CondMispred - prev.CondMispred,
		Returns:             s.Returns - prev.Returns,
		ReturnMispred:       s.ReturnMispred - prev.ReturnMispred,
		Indirect:            s.Indirect - prev.Indirect,
		IndirectMiss:        s.IndirectMiss - prev.IndirectMiss,
		Direct:              s.Direct - prev.Direct,
		SpecInstructions:    s.SpecInstructions - prev.SpecInstructions,
		SpecLoads:           s.SpecLoads - prev.SpecLoads,
		Squashes:            s.Squashes - prev.Squashes,
		SpecBypasses:        s.SpecBypasses - prev.SpecBypasses,
		IndirectSpecTargets: s.IndirectSpecTargets - prev.IndirectSpecTargets,
		Flushes:             s.Flushes - prev.Flushes,
		Fences:              s.Fences - prev.Fences,
		Syscalls:            s.Syscalls - prev.Syscalls,
		StallCycles:         s.StallCycles - prev.StallCycles,
	}
}

// drain waits for every in-flight result (serialising instructions).
// The store queue drains with it: no pending store survives a fence, so
// a drained core offers no Spectre-v4 bypass window.
func (c *CPU) drain() {
	maxReady := c.flagsReady
	for _, r := range c.regReady {
		if r > maxReady {
			maxReady = r
		}
	}
	if maxReady > c.Cycle {
		c.stallCycles += maxReady - c.Cycle
		c.Cycle = maxReady
	}
	if len(c.pendingStores) != 0 {
		c.pendingStores = c.pendingStores[:0]
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
