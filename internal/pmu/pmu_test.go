package pmu

import (
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
	got := Features(6)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d = %s, want %s", i, got[i], want[i])
		}
	}
	if len(Features(0)) != 1 {
		t.Error("Features(0) should clamp to 1")
	}
	if len(Features(1000)) != 56 {
		t.Error("Features(1000) should clamp to 56")
	}
	if len(Features(4)) != 4 {
		t.Error("Features(4) length wrong")
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
	v := Vector(d, []Event{Instructions, Cycles, IPC})
	if len(v) != 3 || v[0] != 10 || v[1] != 20 || v[2] != 0.5 {
		t.Errorf("vector = %v", v)
	}
}

func TestSamplerProducesSamples(t *testing.T) {
	// A long-running loop sampled at a small interval must yield
	// multiple samples with sane headline values.
	mod := isa.MustAssemble(`
		movi r1, 200000
	loop:
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`)
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	if err := img.MapInto(m); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m, cpu.DefaultConfig())
	c.PC = img.Entry

	s := &Sampler{Interval: 10_000, Events: Features(6)}
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
	s := &Sampler{Interval: 0, Events: Features(1)}
	if _, err := s.Run(nil, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestDefaultSampler(t *testing.T) {
	s := DefaultSampler()
	if s.Interval == 0 || len(s.Events) != 4 {
		t.Errorf("default sampler = %+v", s)
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
	build := func(noBlocks bool) *cpu.CPU {
		mod := isa.MustAssemble(`
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
		`)
		img, err := mod.Link(0x10000)
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New(1 << 20)
		if err := img.MapInto(m); err != nil {
			t.Fatal(err)
		}
		cfg := cpu.DefaultConfig()
		cfg.NoBlocks = noBlocks
		c := cpu.New(m, cfg)
		c.PC = img.Entry
		return c
	}
	// A prime interval drifts the boundary across block edges, so stops
	// land mid-block, between a fused pair, and on terminators alike.
	run := func(noBlocks bool) ([]Sample, *cpu.CPU) {
		c := build(noBlocks)
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
