package cpu_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/telemetry"
)

// The differential fuzz targets live in cpu's external test package: the
// oracle imports cpu, so the wiring must sit on this side of the cycle.
// Both targets assert the full lock-step contract — any divergence
// between the optimized core and the reference interpreter fails.

const fuzzBudget = 50_000

// fuzzConfigs is a compact posture ring for fuzzing; the full ring lives
// in cmd/difftest.
var fuzzConfigs = []cpu.Config{
	cpu.DefaultConfig(),
	{SpecWindow: 64, MispredictPenalty: 24}, // speculation off
	{SpecWindow: 2, MispredictPenalty: 3, SpeculationEnabled: true},
	{SpecWindow: 64, MispredictPenalty: 24, SpeculationEnabled: true, SquashCacheEffects: true, Predictor: "gshare"},
}

// FuzzDifferential explores generator seeds: every well-formed random
// program must run divergence-free under every posture.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-7), uint8(2))
	f.Add(int64(999983), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cfgPick uint8) {
		cfg := fuzzConfigs[int(cfgPick)%len(fuzzConfigs)]
		p := progen.Generate(seed, progen.DefaultOptions())
		res, err := oracle.RunProgram(p, cfg, fuzzBudget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d cfg %d diverged after %d steps:\n%v\nprogram:\n%s",
				seed, cfgPick, res.Steps, res.Div, p.Disasm(0))
		}
	})
}

// resetConfig derives a posture from the default core.
func resetConfig(edit func(*cpu.Config)) cpu.Config {
	cfg := cpu.DefaultConfig()
	edit(&cfg)
	return cfg
}

// resetConfigs is FuzzResetEquivalence's posture ring: every structural
// knob Reset has to rebuild or carry over — predictor family, BTB
// geometry, the block tier, interference — plus speculation off.
var resetConfigs = []cpu.Config{
	cpu.DefaultConfig(),
	resetConfig(func(c *cpu.Config) { c.Predictor = "gshare"; c.NextLinePrefetch = true }),
	resetConfig(func(c *cpu.Config) { c.BTBEntries, c.BTBTagBits = 16, 1 }),
	resetConfig(func(c *cpu.Config) { c.NoBlocks = true }),
	resetConfig(func(c *cpu.Config) { c.NoisePeriod, c.NoiseSeed = 300, 7 }),
	resetConfig(func(c *cpu.Config) { c.SpeculationEnabled = false }),
}

// resetRun is the observable outcome of one run: everything
// FuzzResetEquivalence requires a reset machine to reproduce.
type resetRun struct {
	snap   cpu.Snapshot
	regs   [isa.NumRegs]uint64
	pc     uint64
	flags  [3]bool
	halted bool
	fault  string
	blocks cpu.BlockStats
	counts map[string]uint64
}

// runReset starts c at p's entry, runs it for budget instructions and
// records the outcome; rec is the recorder attached to c, or nil.
func runReset(c *cpu.CPU, p progen.Program, budget uint64, rec *telemetry.Recorder) resetRun {
	c.PC = p.CodeBase
	c.Regs[isa.RegSP] = p.StackTop
	var r resetRun
	if err := c.Run(budget); err != nil {
		r.fault = err.Error()
	}
	r.snap, r.regs, r.pc, r.halted, r.blocks = c.Snapshot(), c.Regs, c.PC, c.Halted(), c.BlockStats()
	r.flags[0], r.flags[1], r.flags[2] = c.Flags()
	if rec != nil {
		r.counts = rec.Counts()
	}
	return r
}

// FuzzResetEquivalence holds Reset to its contract: a core and memory
// that ran program A under one posture, then were reset and loaded with
// program B under another, run B exactly like a core and memory built
// fresh for it — same counters, architectural state, fault, block-tier
// statistics, telemetry counts and memory contents. A's run may halt,
// fault or stop on its budget (stopA > 0) with stores and speculation
// state still in flight, and may carry telemetry B does not (tel bit 0
// for A, bit 1 for B).
func FuzzResetEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0), uint8(0), uint16(0), uint8(0))
	f.Add(int64(-18), int64(1), uint8(0), uint8(0), uint16(0), uint8(0))   // A faults
	f.Add(int64(-6), int64(2), uint8(0), uint8(0), uint16(150), uint8(0))  // A stops on its budget
	f.Add(int64(42), int64(7), uint8(0), uint8(1), uint16(0), uint8(0))    // pht -> gshare
	f.Add(int64(7), int64(42), uint8(0), uint8(2), uint16(0), uint8(0))    // BTB geometry change
	f.Add(int64(240), int64(-53), uint8(2), uint8(3), uint16(0), uint8(1)) // BTB back, NoBlocks, telemetry on A only
	f.Add(int64(-7), int64(11), uint8(3), uint8(0), uint16(0), uint8(0))   // NoBlocks -> blocks
	f.Add(int64(11), int64(-7), uint8(4), uint8(4), uint16(0), uint8(0))   // noise
	f.Add(int64(18), int64(18), uint8(1), uint8(0), uint16(77), uint8(3))  // same program, both traced
	f.Add(int64(59), int64(21), uint8(0), uint8(0), uint16(0), uint8(0))   // A compiles 38 blocks, B 12 into A's spares
	f.Fuzz(func(t *testing.T, seedA, seedB int64, postA, postB uint8, stopA uint16, tel uint8) {
		cfgA := resetConfigs[int(postA)%len(resetConfigs)]
		cfgB := resetConfigs[int(postB)%len(resetConfigs)]
		pa := progen.Generate(seedA, progen.DefaultOptions())
		pb := progen.Generate(seedB, progen.DefaultOptions())
		budgetA := uint64(fuzzBudget)
		if stopA > 0 {
			budgetA = uint64(stopA)
		}

		m, err := pa.NewMem()
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(m, cfgA)
		var recA *telemetry.Recorder
		if tel&1 != 0 {
			recA = telemetry.NewRecorder(256)
			c.AttachTelemetry(recA)
		}
		runReset(c, pa, budgetA, recA)
		var countsA map[string]uint64
		if recA != nil {
			countsA = recA.Counts()
		}

		m.Reset(m.Size())
		if err := pb.LoadInto(m); err != nil {
			t.Fatal(err)
		}
		c.Reset(m, cfgB)
		var recReused *telemetry.Recorder
		if tel&2 != 0 {
			recReused = recA
			if recReused == nil {
				recReused = telemetry.NewRecorder(256)
			} else {
				recReused.Reset()
			}
			c.AttachTelemetry(recReused)
		}
		reused := runReset(c, pb, fuzzBudget, recReused)

		mf, err := pb.NewMem()
		if err != nil {
			t.Fatal(err)
		}
		cf := cpu.New(mf, cfgB)
		var recFresh *telemetry.Recorder
		if tel&2 != 0 {
			recFresh = telemetry.NewRecorder(256)
			cf.AttachTelemetry(recFresh)
		}
		fresh := runReset(cf, pb, fuzzBudget, recFresh)

		where := fmt.Sprintf("A=%d posture %d (stop %d), B=%d posture %d, tel %d", seedA, postA, stopA, seedB, postB, tel)
		switch {
		case reused.snap != fresh.snap:
			t.Fatalf("%s: snapshot\nreused %+v\nfresh  %+v", where, reused.snap, fresh.snap)
		case reused.regs != fresh.regs || reused.pc != fresh.pc || reused.flags != fresh.flags || reused.halted != fresh.halted:
			t.Fatalf("%s: architectural state\nreused pc=%#x halted=%v flags=%v regs=%x\nfresh  pc=%#x halted=%v flags=%v regs=%x",
				where, reused.pc, reused.halted, reused.flags, reused.regs, fresh.pc, fresh.halted, fresh.flags, fresh.regs)
		case reused.fault != fresh.fault:
			t.Fatalf("%s: fault %q, fresh %q", where, reused.fault, fresh.fault)
		case reused.blocks != fresh.blocks:
			t.Fatalf("%s: block stats\nreused %+v\nfresh  %+v", where, reused.blocks, fresh.blocks)
		case !reflect.DeepEqual(reused.counts, fresh.counts):
			t.Fatalf("%s: telemetry counts\nreused %v\nfresh  %v", where, reused.counts, fresh.counts)
		}
		if recA != nil && recReused == nil && !reflect.DeepEqual(recA.Counts(), countsA) {
			t.Fatalf("%s: B's run still reported to A's recorder", where)
		}
		if at, differ := mem.FirstDiff(m, mf, 0, m.Size()); differ {
			t.Fatalf("%s: memory differs at %#x", where, at)
		}
	})
}

// FuzzDifferentialMutated starts from a generated program and stomps
// eight attacker-controlled bytes at an arbitrary (possibly misaligned)
// code offset. The result is usually an illegal or wild program; the
// contract is that both implementations take the *same* wrong turn —
// identical faults, identical architectural state — which is exactly
// where decoder-validation and predecode-coherence bugs hide.
func FuzzDifferentialMutated(f *testing.F) {
	f.Add(int64(1), uint32(0), uint64(0))
	f.Add(int64(3), uint32(160), uint64(0xFFFFFFFF_FFFFFFFF))
	f.Add(int64(11), uint32(77), uint64(0x0102030405060708))
	f.Fuzz(func(t *testing.T, seed int64, pos uint32, patch uint64) {
		p := progen.Generate(seed, progen.DefaultOptions())
		if len(p.Code) < 8 {
			t.Skip("degenerate program")
		}
		code := make([]byte, len(p.Code))
		copy(code, p.Code)
		off := int(pos) % (len(code) - 7)
		binary.LittleEndian.PutUint64(code[off:], patch)
		p.Code = code
		res, err := oracle.RunProgram(p, cpu.DefaultConfig(), fuzzBudget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d mutation (off %d, patch %#x) diverged after %d steps:\n%v",
				seed, off, patch, res.Steps, res.Div)
		}
	})
}

// FuzzBlockCompile drives the superblock tier against the single-step
// interpreter over generated programs (including self-modifying ones)
// under the posture ring. The tier contract is harsher than the
// architectural lock-step above: RunTierDiff compares the full PMU
// snapshot — Cycle and StallCycles included — at every slice boundary,
// plus all registers, flags and dirtied memory.
func FuzzBlockCompile(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(42), uint8(1), uint16(33))
	f.Add(int64(-7), uint8(2), uint16(257))
	f.Add(int64(999983), uint8(3), uint16(1024))
	f.Fuzz(func(t *testing.T, seed int64, cfgPick uint8, slice uint16) {
		cfg := fuzzConfigs[int(cfgPick)%len(fuzzConfigs)]
		p := progen.Generate(seed, progen.DefaultOptions())
		res, err := oracle.RunTierDiff(p, cfg, fuzzBudget, uint64(slice), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d cfg %d slice %d tier divergence after %d steps:\n%v\nprogram:\n%s",
				seed, cfgPick, slice, res.Steps, res.Div, p.Disasm(0))
		}
	})
}
