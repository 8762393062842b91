// Package pmu models the performance monitoring unit and the PAPI-style
// profiler of the paper's HID pipeline (§III-A): a catalogue of 56
// countable events ("We collect a total of 56 performance events
// available on the system"), a priority ordering whose first six entries
// are the paper's training features (total cache misses, total cache
// accesses, total branch instructions, branch mispredictions, total
// number of instructions, total cycles), and an interval sampler that
// turns a running core's counters into per-interval HPC vectors.
package pmu

import (
	"fmt"

	"repro/internal/cpu"
)

// Event identifies one countable performance event.
type Event int

// The events in priority order; the catalogue table below states each
// one's name, description and formula. The first six, in order, are the
// paper's feature set; the remainder are the extended events a real PMU
// exposes (raw counters, aggregates, and derived rates).
const (
	TotalCacheMisses Event = iota
	TotalCacheAccesses
	TotalBranches
	BranchMispredictions
	Instructions
	Cycles

	L1Accesses
	L1Misses
	L1Evictions
	L1FlushHits
	L2Accesses
	L2Misses
	L2Evictions
	L2FlushHits
	Loads
	Stores
	MemoryOps
	CondBranches
	CondMispredictions
	Returns
	ReturnMispredictions
	IndirectBranches
	IndirectMispredictions
	DirectBranches
	SpecInstructions
	SpecLoads
	Squashes
	FlushInstructions
	FenceInstructions
	Syscalls
	StallCycles
	TotalEvictions
	TotalFlushHits

	IPC
	L1MissRate
	L2MissRate
	CacheMissRatio
	BranchMispredRate
	CondMispredRate
	ReturnMispredRate
	LoadFraction
	StoreFraction
	SpecFraction
	StallFraction
	SquashRate

	FlushesPerKInstr
	FencesPerKInstr
	SyscallsPerKInstr
	SpecLoadsPerKInstr
	ReturnsPerKInstr
	IndirectPerKInstr
	BranchesPerKInstr
	MissesPerKInstr
	EvictsPerKInstr
	L2AccessPerKInstr
	CyclesPerBranch

	NumEvents // sentinel
)

// eventDef is one catalogue entry: everything the package states about
// an event, in one place.
type eventDef struct {
	name  string                       // PAPI-style wire name
	desc  string                       // one-line description, in the style of papi_avail
	value func(d cpu.Snapshot) float64 // the event over a counter delta
}

// catalogue is the one statement of the 56 events. The wire names key
// the manifest schema, trace CSV headers and registry metric names, so
// renaming or reordering an entry is a breaking change.
var catalogue = [NumEvents]eventDef{
	TotalCacheMisses: {"total_cache_misses", "L1D + L2 misses per interval (paper feature 1)",
		func(d cpu.Snapshot) float64 { return float64(d.L1Misses + d.L2Misses) }},
	TotalCacheAccesses: {"total_cache_accesses", "L1D + L2 lookups per interval (paper feature 2)",
		func(d cpu.Snapshot) float64 { return float64(d.L1Accesses + d.L2Accesses) }},
	TotalBranches: {"total_branch_instructions", "all retired branch instructions (paper feature 3)",
		func(d cpu.Snapshot) float64 { return float64(d.CondBranches + d.Returns + d.Indirect + d.Direct) }},
	BranchMispredictions: {"branch_mispredictions", "conditional + return + indirect mispredictions (paper feature 4)",
		func(d cpu.Snapshot) float64 { return float64(d.CondMispred + d.ReturnMispred + d.IndirectMiss) }},
	Instructions: {"total_instructions", "retired instructions (paper feature 5)",
		func(d cpu.Snapshot) float64 { return float64(d.Instructions) }},
	Cycles: {"total_cycles", "elapsed core cycles (paper feature 6)",
		func(d cpu.Snapshot) float64 { return float64(d.Cycles) }},

	L1Accesses: {"l1_accesses", "L1D lookups",
		func(d cpu.Snapshot) float64 { return float64(d.L1Accesses) }},
	L1Misses: {"l1_misses", "L1D misses",
		func(d cpu.Snapshot) float64 { return float64(d.L1Misses) }},
	L1Evictions: {"l1_evictions", "L1D lines displaced by fills",
		func(d cpu.Snapshot) float64 { return float64(d.L1Evicts) }},
	L1FlushHits: {"l1_flush_hits", "L1D lines invalidated by CLFLUSH",
		func(d cpu.Snapshot) float64 { return float64(d.L1Flushes) }},
	L2Accesses: {"l2_accesses", "L2 lookups (L1D misses)",
		func(d cpu.Snapshot) float64 { return float64(d.L2Accesses) }},
	L2Misses: {"l2_misses", "L2 misses (DRAM fills)",
		func(d cpu.Snapshot) float64 { return float64(d.L2Misses) }},
	L2Evictions: {"l2_evictions", "L2 lines displaced by fills",
		func(d cpu.Snapshot) float64 { return float64(d.L2Evicts) }},
	L2FlushHits: {"l2_flush_hits", "L2 lines invalidated by CLFLUSH",
		func(d cpu.Snapshot) float64 { return float64(d.L2Flushes) }},
	Loads: {"loads", "retired load-class instructions (LOAD/LOADB/POP/RET)",
		func(d cpu.Snapshot) float64 { return float64(d.Loads) }},
	Stores: {"stores", "retired store-class instructions (STORE/STOREB/PUSH/CALL)",
		func(d cpu.Snapshot) float64 { return float64(d.Stores) }},
	MemoryOps: {"memory_ops", "loads + stores",
		func(d cpu.Snapshot) float64 { return float64(d.Loads + d.Stores) }},
	CondBranches: {"cond_branches", "retired conditional branches",
		func(d cpu.Snapshot) float64 { return float64(d.CondBranches) }},
	CondMispredictions: {"cond_mispredictions", "conditional branch mispredictions",
		func(d cpu.Snapshot) float64 { return float64(d.CondMispred) }},
	Returns: {"returns", "retired RET instructions",
		func(d cpu.Snapshot) float64 { return float64(d.Returns) }},
	ReturnMispredictions: {"return_mispredictions", "RSB mispredictions (ROP chains light this up)",
		func(d cpu.Snapshot) float64 { return float64(d.ReturnMispred) }},
	IndirectBranches: {"indirect_branches", "retired indirect jumps/calls",
		func(d cpu.Snapshot) float64 { return float64(d.Indirect) }},
	IndirectMispredictions: {"indirect_mispredictions", "BTB mispredictions",
		func(d cpu.Snapshot) float64 { return float64(d.IndirectMiss) }},
	DirectBranches: {"direct_branches", "retired direct JMP/CALL",
		func(d cpu.Snapshot) float64 { return float64(d.Direct) }},
	SpecInstructions: {"spec_instructions", "wrong-path instructions executed then squashed",
		func(d cpu.Snapshot) float64 { return float64(d.SpecInstructions) }},
	SpecLoads: {"spec_loads", "wrong-path loads (their fills persist: Spectre)",
		func(d cpu.Snapshot) float64 { return float64(d.SpecLoads) }},
	Squashes: {"squashes", "speculation episodes squashed",
		func(d cpu.Snapshot) float64 { return float64(d.Squashes) }},
	FlushInstructions: {"clflush_instructions", "retired CLFLUSH (perturbation/flush+reload fingerprint)",
		func(d cpu.Snapshot) float64 { return float64(d.Flushes) }},
	FenceInstructions: {"fence_instructions", "retired MFENCE/LFENCE",
		func(d cpu.Snapshot) float64 { return float64(d.Fences) }},
	Syscalls: {"syscalls", "retired SYSCALLs",
		func(d cpu.Snapshot) float64 { return float64(d.Syscalls) }},
	StallCycles: {"stall_cycles", "cycles lost waiting on operands/drains",
		func(d cpu.Snapshot) float64 { return float64(d.StallCycles) }},
	TotalEvictions: {"total_evictions", "L1D + L2 displacements",
		func(d cpu.Snapshot) float64 { return float64(d.L1Evicts + d.L2Evicts) }},
	TotalFlushHits: {"total_flush_hits", "L1D + L2 CLFLUSH invalidations",
		func(d cpu.Snapshot) float64 { return float64(d.L1Flushes + d.L2Flushes) }},

	IPC: {"ipc", "instructions per cycle",
		func(d cpu.Snapshot) float64 { return ratio(d.Instructions, d.Cycles) }},
	L1MissRate: {"l1_miss_rate", "L1D misses / lookups",
		func(d cpu.Snapshot) float64 { return ratio(d.L1Misses, d.L1Accesses) }},
	L2MissRate: {"l2_miss_rate", "L2 misses / lookups",
		func(d cpu.Snapshot) float64 { return ratio(d.L2Misses, d.L2Accesses) }},
	CacheMissRatio: {"cache_miss_ratio", "total misses / total lookups",
		func(d cpu.Snapshot) float64 { return ratio(d.L1Misses+d.L2Misses, d.L1Accesses+d.L2Accesses) }},
	BranchMispredRate: {"branch_mispred_rate", "mispredictions / branches",
		func(d cpu.Snapshot) float64 {
			return ratio(d.CondMispred+d.ReturnMispred+d.IndirectMiss, d.CondBranches+d.Returns+d.Indirect)
		}},
	CondMispredRate: {"cond_mispred_rate", "conditional mispredictions / conditional branches",
		func(d cpu.Snapshot) float64 { return ratio(d.CondMispred, d.CondBranches) }},
	ReturnMispredRate: {"return_mispred_rate", "RSB mispredictions / returns",
		func(d cpu.Snapshot) float64 { return ratio(d.ReturnMispred, d.Returns) }},
	LoadFraction: {"load_fraction", "loads / instructions",
		func(d cpu.Snapshot) float64 { return ratio(d.Loads, d.Instructions) }},
	StoreFraction: {"store_fraction", "stores / instructions",
		func(d cpu.Snapshot) float64 { return ratio(d.Stores, d.Instructions) }},
	SpecFraction: {"spec_fraction", "squashed instructions / retired instructions",
		func(d cpu.Snapshot) float64 { return ratio(d.SpecInstructions, d.Instructions) }},
	StallFraction: {"stall_fraction", "stall cycles / cycles",
		func(d cpu.Snapshot) float64 { return ratio(d.StallCycles, d.Cycles) }},
	SquashRate: {"squash_rate", "squashes / branches",
		func(d cpu.Snapshot) float64 { return ratio(d.Squashes, d.CondBranches+d.Returns+d.Indirect) }},

	FlushesPerKInstr: {"clflush_per_kinstr", "CLFLUSH per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.Flushes, d.Instructions) }},
	FencesPerKInstr: {"fences_per_kinstr", "fences per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.Fences, d.Instructions) }},
	SyscallsPerKInstr: {"syscalls_per_kinstr", "syscalls per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.Syscalls, d.Instructions) }},
	SpecLoadsPerKInstr: {"spec_loads_per_kinstr", "wrong-path loads per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.SpecLoads, d.Instructions) }},
	ReturnsPerKInstr: {"returns_per_kinstr", "returns per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.Returns, d.Instructions) }},
	IndirectPerKInstr: {"indirect_per_kinstr", "indirect branches per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.Indirect, d.Instructions) }},
	BranchesPerKInstr: {"branches_per_kinstr", "branches per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.CondBranches+d.Returns+d.Indirect, d.Instructions) }},
	MissesPerKInstr: {"misses_per_kinstr", "cache misses per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.L1Misses+d.L2Misses, d.Instructions) }},
	EvictsPerKInstr: {"evicts_per_kinstr", "evictions per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.L1Evicts+d.L2Evicts, d.Instructions) }},
	L2AccessPerKInstr: {"l2_access_per_kinstr", "L2 lookups per 1000 instructions",
		func(d cpu.Snapshot) float64 { return perK(d.L2Accesses, d.Instructions) }},
	CyclesPerBranch: {"cycles_per_branch", "cycles / branches",
		func(d cpu.Snapshot) float64 { return ratio(d.Cycles, d.CondBranches+d.Returns+d.Indirect) }},
}

func (e Event) valid() bool { return e >= 0 && e < NumEvents }

// String returns the event's PAPI-style name.
func (e Event) String() string {
	if !e.valid() {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return catalogue[e].name
}

// Describe returns a one-line human description of the event, in the
// style of `papi_avail` — used by hidlab's catalogue listing.
func (e Event) Describe() string {
	if !e.valid() {
		return "undocumented event"
	}
	return catalogue[e].desc
}

// AllEvents returns the full catalogue in priority order.
func AllEvents() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// Features returns the first n events of the priority ordering — the
// paper's feature-size knob (1, 2, 4, 8, 16). n is clamped to the
// catalogue size.
func Features(n int) []Event {
	if n < 1 {
		n = 1
	}
	if n > int(NumEvents) {
		n = int(NumEvents)
	}
	return AllEvents()[:n]
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perK(a, b uint64) float64 { return 1000 * ratio(a, b) }

// Extract computes the value of event e over the counter delta d; an
// event outside the catalogue reads 0.
func Extract(d cpu.Snapshot, e Event) float64 {
	if !e.valid() {
		return 0
	}
	return catalogue[e].value(d)
}

// Vector extracts the given events from a delta into a feature vector.
func Vector(d cpu.Snapshot, events []Event) []float64 {
	out := make([]float64, len(events))
	for i, e := range events {
		out[i] = Extract(d, e)
	}
	return out
}

// Sample is one sampling interval's event vector.
type Sample []float64

// Sampler profiles a core at a fixed cycle interval, the runtime
// monitoring loop of the paper's HID ("The HID performs realtime
// profiling of the applications executing on the system").
type Sampler struct {
	// Interval is the sampling period in cycles.
	Interval uint64
	// Events selects which events each sample records.
	Events []Event
}

// Run executes the core until it halts or maxInstr instructions retire,
// emitting one sample per elapsed interval. The trailing partial
// interval is kept when it covers at least half the period (so short
// programs still produce a final sample).
//
// The core advances through cpu.RunUntilCycle, which stops on exactly
// the retirement that crosses each interval boundary in either
// execution tier — so the samples are byte-identical to a single-step
// loop's while the hot stretches between boundaries run through the
// superblock cache (TestSamplerTierEquivalence pins this).
func (s *Sampler) Run(c *cpu.CPU, maxInstr uint64) ([]Sample, error) {
	if s.Interval == 0 {
		return nil, fmt.Errorf("pmu: sampling interval must be positive")
	}
	var samples []Sample
	prev := c.Snapshot()
	nextBoundary := c.Cycle + s.Interval
	for retired := uint64(0); retired < maxInstr && !c.Halted(); {
		before := c.Instret()
		err := c.RunUntilCycle(maxInstr-retired, nextBoundary)
		retired += c.Instret() - before
		if err != nil && err != cpu.ErrBudget {
			return samples, err
		}
		if c.Cycle >= nextBoundary {
			snap := c.Snapshot()
			samples = append(samples, Vector(snap.Sub(prev), s.Events))
			prev = snap
			nextBoundary = c.Cycle + s.Interval
		}
	}
	if tail := c.Snapshot().Sub(prev); tail.Cycles >= s.Interval/2 {
		samples = append(samples, Vector(tail, s.Events))
	}
	return samples, nil
}
