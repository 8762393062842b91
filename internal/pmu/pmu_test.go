package pmu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func TestEventCatalogueIs56(t *testing.T) {
	if int(NumEvents) != 56 {
		t.Fatalf("catalogue has %d events, the paper collects 56", int(NumEvents))
	}
	if len(AllEvents()) != 56 {
		t.Fatal("AllEvents length mismatch")
	}
	seen := map[string]bool{}
	for _, e := range AllEvents() {
		n := e.String()
		if n == "" || seen[n] {
			t.Errorf("event %d has empty/duplicate name %q", int(e), n)
		}
		seen[n] = true
	}
}

func TestPaperFeaturePriority(t *testing.T) {
	want := []Event{TotalCacheMisses, TotalCacheAccesses, TotalBranches, BranchMispredictions, Instructions, Cycles}
	got := AllEvents()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestExtractHeadlineEvents(t *testing.T) {
	d := cpu.Snapshot{
		Cycles: 1000, Instructions: 500,
		L1Accesses: 100, L1Misses: 10, L2Accesses: 10, L2Misses: 4,
		CondBranches: 50, CondMispred: 5, Returns: 10, ReturnMispred: 1,
		Indirect: 2, IndirectMiss: 1, Direct: 8,
		Loads: 60, Stores: 40, StallCycles: 200,
	}
	cases := map[Event]float64{
		TotalCacheMisses:     14,
		TotalCacheAccesses:   110,
		TotalBranches:        70,
		BranchMispredictions: 7,
		Instructions:         500,
		Cycles:               1000,
		IPC:                  0.5,
		L1MissRate:           0.1,
		MemoryOps:            100,
		StallFraction:        0.2,
		BranchMispredRate:    7.0 / 62.0,
	}
	for e, want := range cases {
		if got := Extract(d, e); got != want {
			t.Errorf("%s = %v, want %v", e, got, want)
		}
	}
}

// TestEveryEventValue pins every formula in the catalogue over one delta
// whose 28 counters all differ, so an event that reads the wrong counter,
// or sums or divides the wrong ones, changes its value.
func TestEveryEventValue(t *testing.T) {
	d := cpu.Snapshot{
		Cycles: 20011, Instructions: 9001, Loads: 2003, Stores: 907,
		L1Accesses: 3001, L1Misses: 127, L1Evicts: 83, L1Flushes: 5,
		L2Accesses: 131, L2Misses: 31, L2Evicts: 11, L2Flushes: 3,
		CondBranches: 1499, CondMispred: 41, Returns: 61, ReturnMispred: 7,
		Indirect: 23, IndirectMiss: 2, Direct: 89,
		SpecInstructions: 401, SpecLoads: 71, Squashes: 43,
		SpecBypasses: 13, IndirectSpecTargets: 17,
		Flushes: 19, Fences: 29, Syscalls: 37, StallCycles: 6007,
	}
	want := [NumEvents]float64{
		TotalCacheMisses:       158,
		TotalCacheAccesses:     3132,
		TotalBranches:          1672,
		BranchMispredictions:   50,
		Instructions:           9001,
		Cycles:                 20011,
		L1Accesses:             3001,
		L1Misses:               127,
		L1Evictions:            83,
		L1FlushHits:            5,
		L2Accesses:             131,
		L2Misses:               31,
		L2Evictions:            11,
		L2FlushHits:            3,
		Loads:                  2003,
		Stores:                 907,
		MemoryOps:              2910,
		CondBranches:           1499,
		CondMispredictions:     41,
		Returns:                61,
		ReturnMispredictions:   7,
		IndirectBranches:       23,
		IndirectMispredictions: 2,
		DirectBranches:         89,
		SpecInstructions:       401,
		SpecLoads:              71,
		Squashes:               43,
		FlushInstructions:      19,
		FenceInstructions:      29,
		Syscalls:               37,
		StallCycles:            6007,
		TotalEvictions:         94,
		TotalFlushHits:         8,
		IPC:                    0.4498026085652891,
		L1MissRate:             0.04231922692435855,
		L2MissRate:             0.2366412213740458,
		CacheMissRatio:         0.05044699872286079,
		BranchMispredRate:      0.03158559696778269,
		CondMispredRate:        0.027351567711807873,
		ReturnMispredRate:      0.11475409836065574,
		LoadFraction:           0.22253082990778802,
		StoreFraction:          0.10076658149094544,
		SpecFraction:           0.04455060548827908,
		StallFraction:          0.30018489830593176,
		SquashRate:             0.027163613392293114,
		FlushesPerKInstr:       2.110876569270081,
		FencesPerKInstr:        3.2218642373069657,
		SyscallsPerKInstr:      4.110654371736474,
		SpecLoadsPerKInstr:     7.888012443061882,
		ReturnsPerKInstr:       6.777024775024997,
		IndirectPerKInstr:      2.555271636484835,
		BranchesPerKInstr:      175.86934785023885,
		MissesPerKInstr:        17.55360515498278,
		EvictsPerKInstr:        10.443284079546718,
		L2AccessPerKInstr:      14.55393845128319,
		CyclesPerBranch:        12.641187618445988,
	}
	for _, e := range AllEvents() {
		if got := Extract(d, e); got != want[e] {
			t.Errorf("%s = %v, want %v", e, got, want[e])
		}
	}
	if got := Extract(d, NumEvents); got != 0 {
		t.Errorf("out-of-range event = %v, want 0", got)
	}
	if got := Event(-1).String(); got != "event(-1)" {
		t.Errorf("Event(-1).String() = %q", got)
	}
}

func TestExtractZeroDeltaIsFinite(t *testing.T) {
	var d cpu.Snapshot
	for _, e := range AllEvents() {
		v := Extract(d, e)
		if v != 0 {
			t.Errorf("%s on zero delta = %v, want 0", e, v)
		}
	}
}

func TestVector(t *testing.T) {
	d := cpu.Snapshot{Instructions: 10, Cycles: 20}
	v := vector(nil, d, []Event{Instructions, Cycles, IPC})
	if len(v) != 3 || v[0] != 10 || v[1] != 20 || v[2] != 0.5 {
		t.Errorf("vector = %v", v)
	}
}

// loopSrc counts r1 down from 200,000: a fixed, branchy hot loop.
const loopSrc = `
	movi r1, 200000
loop:
	subi r1, r1, 1
	cmpi r1, 0
	jne loop
	halt
`

// specSrc is a loop with cache misses, in-flight flags and real
// speculation episodes.
const specSrc = `
	movi r1, arr
	movi r2, 40000
loop:
	clflush [r1+8]
	load r3, [r1+8]
	store [r1+16], r3
	cmpi r3, 0
	jl skip
	addi r5, r5, 1
skip:
	load r9, [r1+8]
	muli r9, r9, 25214903917
	addi r9, r9, 11
	store [r1+8], r9
	subi r2, r2, 1
	cmpi r2, 0
	jne loop
	halt
.data
arr: .space 64
`

// newCore maps src, linked at 0x10000, into a fresh 1 MiB memory and
// returns a core configured by cfg at its entry.
func newCore(tb testing.TB, src string, cfg cpu.Config) *cpu.CPU {
	tb.Helper()
	img, err := isa.MustAssemble(src).Link(0x10000)
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.New(1 << 20)
	if err := img.MapInto(m); err != nil {
		tb.Fatal(err)
	}
	c := cpu.New(m, cfg)
	c.PC = img.Entry
	return c
}

func TestSamplerProducesSamples(t *testing.T) {
	// A long-running loop sampled at a small interval must yield
	// multiple samples with sane headline values.
	c := newCore(t, loopSrc, cpu.DefaultConfig())
	s := &Sampler{Interval: 10_000, Events: AllEvents()[:6]}
	samples, err := s.Run(c, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i, smp := range samples {
		if len(smp) != 6 {
			t.Fatalf("sample %d has %d features", i, len(smp))
		}
		cycles := smp[5]
		if cycles < 10_000 && i < len(samples)-1 {
			t.Errorf("sample %d covers only %v cycles", i, cycles)
		}
		if smp[4] <= 0 {
			t.Errorf("sample %d has no instructions", i)
		}
	}
}

func TestSamplerZeroIntervalRejected(t *testing.T) {
	s := &Sampler{Interval: 0, Events: AllEvents()[:1]}
	if _, err := s.Run(nil, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestEveryEventDescribed(t *testing.T) {
	for _, e := range AllEvents() {
		if e.Describe() == "undocumented event" {
			t.Errorf("event %s lacks a description", e)
		}
	}
	if Event(999).Describe() != "undocumented event" {
		t.Error("out-of-range event described")
	}
}

// TestSamplerTierEquivalence pins the sampler's cycle-horizon contract:
// profiling through the superblock tier must produce byte-identical
// sample vectors to profiling the single-step interpreter, including on
// a workload with cache misses, in-flight flags and real speculation
// episodes — the boundary-crossing retirement is the same instruction
// in both tiers.
func TestSamplerTierEquivalence(t *testing.T) {
	// A prime interval drifts the boundary across block edges, so stops
	// land mid-block, between a fused pair, and on terminators alike.
	run := func(noBlocks bool) ([]Sample, *cpu.CPU) {
		cfg := cpu.DefaultConfig()
		cfg.NoBlocks = noBlocks
		c := newCore(t, specSrc, cfg)
		s := &Sampler{Interval: 9973, Events: AllEvents()}
		samples, err := s.Run(c, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return samples, c
	}
	blocks, cb := run(false)
	single, _ := run(true)
	if cb.BlockStats().Hits == 0 {
		t.Fatal("block tier never engaged; the test is comparing the interpreter with itself")
	}
	if len(blocks) != len(single) {
		t.Fatalf("sample counts differ: blocks=%d single-step=%d", len(blocks), len(single))
	}
	for i := range blocks {
		for j := range blocks[i] {
			if blocks[i][j] != single[i][j] {
				t.Fatalf("sample %d feature %s: blocks=%v single-step=%v",
					i, AllEvents()[j], blocks[i][j], single[i][j])
			}
		}
	}
}

// TestSamplerIsPassive pins what lets a caller that wants only a run's
// totals (Table I's IPC) skip the sampler: profiling a run leaves the
// core exactly where a bare Run leaves it. The prime interval lands the
// sampler's stops mid-block; the runs cover both tiers, a core with
// co-tenant noise, and a budget that cuts the program short.
func TestSamplerIsPassive(t *testing.T) {
	noisy := cpu.DefaultConfig()
	noisy.NoisePeriod, noisy.NoiseSeed = 700, 5
	noisyNoBlocks := noisy
	noisyNoBlocks.NoBlocks = true
	noBlocks := cpu.DefaultConfig()
	noBlocks.NoBlocks = true
	cores := []struct {
		name string
		cfg  cpu.Config
	}{
		{"blocks", cpu.DefaultConfig()},
		{"noblocks", noBlocks},
		{"noisy", noisy},
		{"noisy-noblocks", noisyNoBlocks},
	}
	for _, core := range cores {
		for _, budget := range []uint64{5_000_000, 123_457} {
			cfg := core.cfg
			t.Run(fmt.Sprintf("%s/budget=%d", core.name, budget), func(t *testing.T) {
				sampled := newCore(t, specSrc, cfg)
				s := &Sampler{Interval: 9973, Events: AllEvents()}
				samples, err := s.Run(sampled, budget)
				if err != nil {
					t.Fatal(err)
				}
				if len(samples) < 10 {
					t.Fatalf("only %d samples: the sampler barely stopped the core", len(samples))
				}
				bare := newCore(t, specSrc, cfg)
				if err := bare.Run(budget); err != nil && err != cpu.ErrBudget {
					t.Fatal(err)
				}
				if sampled.Halted() != bare.Halted() || sampled.Halted() != (budget == 5_000_000) {
					t.Fatalf("halted: sampled %v, bare %v", sampled.Halted(), bare.Halted())
				}
				if got, want := sampled.Snapshot(), bare.Snapshot(); got != want {
					t.Errorf("snapshot:\nsampled %+v\nbare    %+v", got, want)
				}
				if sampled.Instret() != bare.Instret() || sampled.Cycle != bare.Cycle {
					t.Errorf("instret/cycle: sampled %d/%d, bare %d/%d",
						sampled.Instret(), sampled.Cycle, bare.Instret(), bare.Cycle)
				}
				if sampled.PC != bare.PC || sampled.Regs != bare.Regs {
					t.Errorf("architectural state: sampled pc %#x regs %v, bare pc %#x regs %v",
						sampled.PC, sampled.Regs, bare.PC, bare.Regs)
				}
			})
		}
	}
}

// TestAppendRunMatchesRun checks the reuse rule: sampling into a dirty
// buffer (spare rows narrower and wider than a sample, stale values, and
// capacity past what the run fills) appends exactly Run's samples after
// the buffer's kept prefix, which stays untouched.
func TestAppendRunMatchesRun(t *testing.T) {
	s := &Sampler{Interval: 9973, Events: AllEvents()}
	want, err := s.Run(newCore(t, specSrc, cpu.DefaultConfig()), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Sample, 1, len(want)+40)
	dst[0] = Sample{1, 2, 3}
	for i := 1; i < cap(dst); i++ {
		row := make(Sample, []int{3, len(s.Events), 2 * len(s.Events)}[i%3])
		for j := range row {
			row[j] = -float64(i)
		}
		dst[:i+1][i] = row
	}
	got, err := s.AppendRun(dst, newCore(t, specSrc, cpu.DefaultConfig()), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(want) || !slices.Equal(got[0], Sample{1, 2, 3}) {
		t.Fatalf("AppendRun returned %d samples after prefix %v, want %d after [1 2 3]", len(got)-1, got[0], len(want))
	}
	for i, w := range want {
		if g := got[1+i]; !slices.Equal(g, w) {
			t.Fatalf("sample %d:\nappended %v\nRun      %v", i, g, w)
		}
	}
}

// TestAppendRunAllocs pins what the reuse is for: a second run sampled
// into the buffer the first one filled allocates no vector. The core is
// reset in place between the runs, and loopSrc keeps no state in
// memory, so every rerun samples as many vectors and allocates nothing
// else either.
func TestAppendRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := &Sampler{Interval: 9973, Events: AllEvents()}
	c := newCore(t, loopSrc, cpu.DefaultConfig())
	entry := c.PC
	buf, err := s.AppendRun(nil, c, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	n := len(buf)
	allocs := testing.AllocsPerRun(5, func() {
		c.Reset(c.Mem, cpu.DefaultConfig())
		c.PC = entry
		if buf, err = s.AppendRun(buf[:0], c, 5_000_000); err != nil {
			t.Fatal(err)
		}
	})
	if len(buf) != n {
		t.Fatalf("rerun sampled %d vectors, the first run %d", len(buf), n)
	}
	if allocs != 0 {
		t.Errorf("a rerun into the same buffer allocates %.0f objects, want 0", allocs)
	}
}

// vectorSink keeps the benchmarked results alive.
var vectorSink []float64

// BenchmarkVector measures one sample's extraction: all 56 events over
// one counter delta.
func BenchmarkVector(b *testing.B) {
	d := cpu.Snapshot{
		Cycles: 20_000, Instructions: 9_000, Loads: 2_100, Stores: 900,
		L1Accesses: 3_000, L1Misses: 120, L1Evicts: 80, L1Flushes: 4,
		L2Accesses: 120, L2Misses: 30, L2Evicts: 10, L2Flushes: 2,
		CondBranches: 1_500, CondMispred: 40, Returns: 60, ReturnMispred: 3,
		Indirect: 20, IndirectMiss: 2, Direct: 90,
		SpecInstructions: 400, SpecLoads: 70, Squashes: 45,
		Flushes: 4, Fences: 1, Syscalls: 2, StallCycles: 6_000,
	}
	events := AllEvents()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vectorSink = vector(nil, d, events)
	}
}

// BenchmarkSamplerRun measures profiling loopSrc to its halt at the
// experiments' interval of 20,000 cycles, over the full catalogue. Each
// run starts from a fresh core, built outside the timer.
func BenchmarkSamplerRun(b *testing.B) {
	s := &Sampler{Interval: 20_000, Events: AllEvents()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newCore(b, loopSrc, cpu.DefaultConfig())
		b.StartTimer()
		samples, err := s.Run(c, 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(samples) == 0 {
			b.Fatal("no samples")
		}
	}
}
