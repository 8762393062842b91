package cpu

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// specSrc is a branchy program whose compare depends on an in-flight
// load, forcing wrong-path speculation episodes.
const specSrc = `
	subi sp, sp, 16      ; scratch frame
	movi r1, 0           ; i
	movi r2, 0           ; acc
loop:
	store [sp], r1
	load r4, [sp]        ; in-flight value feeds the compare
	cmp r4, r2           ; -> unresolved branch, wrong-path episodes
	je hit
	addi r2, r2, 1
hit:
	addi r1, r1, 1
	cmpi r1, 100
	jne loop
	halt
`

// neutralPaths are the ways a core retires specSrc to its halt that
// TestTelemetryTimingNeutral covers; each attaches rec (nil: none)
// where that way of running a core attaches its recorder.
var neutralPaths = []struct {
	name string
	run  func(t *testing.T, rec *telemetry.Recorder) *CPU
}{
	{"blocks", func(t *testing.T, rec *telemetry.Recorder) *CPU {
		c, _ := load(t, specSrc, DefaultConfig())
		attach(c, rec)
		mustRun(t, c, 1_000_000)
		return c
	}},
	{"noblocks", func(t *testing.T, rec *telemetry.Recorder) *CPU {
		cfg := DefaultConfig()
		cfg.NoBlocks = true
		c, _ := load(t, specSrc, cfg)
		attach(c, rec)
		mustRun(t, c, 1_000_000)
		return c
	}},
	{"step-onretire", func(t *testing.T, rec *telemetry.Recorder) *CPU {
		c, _ := load(t, specSrc, DefaultConfig())
		attach(c, rec)
		var hooked uint64
		c.OnRetire = func(uint64, isa.Instruction) { hooked++ }
		for !c.Halted() {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if hooked != c.Instret() {
			t.Errorf("OnRetire ran %d times for %d retirements", hooked, c.Instret())
		}
		return c
	}},
	{"reset-reattach", func(t *testing.T, rec *telemetry.Recorder) *CPU {
		// The scan gadget machine's sequence: a budget-stopped run, then
		// memory, core and recorder reset in place and the recorder
		// attached again for the next program.
		c, _ := load(t, specSrc, DefaultConfig())
		attach(c, rec)
		if err := c.Run(300); err != ErrBudget {
			t.Fatalf("first run: %v, want the budget", err)
		}
		m := c.Mem
		m.Reset(m.Size())
		img := loadImage(t, m, specSrc)
		c.Reset(m, DefaultConfig())
		if rec != nil {
			rec.Reset()
			c.AttachTelemetry(rec)
		}
		c.PC, c.Regs[isa.RegSP] = img.Entry, m.Size()-mem.PageSize
		mustRun(t, c, 1_000_000)
		return c
	}},
}

func attach(c *CPU, rec *telemetry.Recorder) {
	if rec != nil {
		c.AttachTelemetry(rec)
	}
}

// TestTelemetryTimingNeutral is the differential check that hooks
// observe without perturbing: the same speculating program run with and
// without a recorder attached must produce identical architectural
// state and an identical PMU snapshot, cycle for cycle — while the
// observed run captures a non-trivial event stream. A recorder that
// only counts retirements, which the core then tallies itself, must
// see the same census as one that stores each.
func TestTelemetryTimingNeutral(t *testing.T) {
	for _, path := range neutralPaths {
		t.Run(path.name, func(t *testing.T) {
			rec, countOnly := telemetry.NewRecorder(0), telemetry.NewRecorder(0)
			countOnly.Exclude(telemetry.KindRetire)
			cOn, cCount, cOff := path.run(t, rec), path.run(t, countOnly), path.run(t, nil)
			snapOn := cOn.Snapshot()
			for _, other := range []struct {
				name string
				c    *CPU
			}{{"count-only", cCount}, {"unobserved", cOff}} {
				c := other.c
				if snap := c.Snapshot(); snap != snapOn {
					t.Errorf("PMU snapshots diverge:\n  observed: %+v\n  %s: %+v", snapOn, other.name, snap)
				}
				if c.Regs != cOn.Regs || c.PC != cOn.PC || c.Cycle != cOn.Cycle {
					t.Errorf("%s architectural state diverges: regs %v vs %v, pc %#x vs %#x, cycle %d vs %d",
						other.name, c.Regs, cOn.Regs, c.PC, cOn.PC, c.Cycle, cOn.Cycle)
				}
			}

			counts := rec.Counts()
			if got := countOnly.Counts(); !reflect.DeepEqual(got, counts) {
				t.Errorf("count-only census %v, want the storing recorder's %v", got, counts)
			}
			if countOnly.Total() != rec.Total()-counts["retire"] {
				t.Errorf("count-only recorder stored %d events, want %d", countOnly.Total(), rec.Total()-counts["retire"])
			}
			if counts["retire"] != snapOn.Instructions {
				t.Errorf("retire events = %d, want instret %d", counts["retire"], snapOn.Instructions)
			}
			if counts["spec_enter"] == 0 || counts["spec_enter"] != counts["spec_squash"] {
				t.Errorf("episode events unbalanced: enter %d, squash %d",
					counts["spec_enter"], counts["spec_squash"])
			}
			if counts["spec_squash"] != snapOn.Squashes {
				t.Errorf("squash events = %d, want PMU squashes %d", counts["spec_squash"], snapOn.Squashes)
			}
			if counts["branch_mispredict"] != snapOn.CondMispred {
				t.Errorf("mispredict events = %d, want PMU CondMispred %d",
					counts["branch_mispredict"], snapOn.CondMispred)
			}
			if counts["cache_fill"] == 0 {
				t.Error("no cache_fill events from a load-heavy program")
			}
		})
	}
}

// TestCountOnlyRetireSplitsAtReattach re-attaches mid-run, from inside a
// SYSCALL handler: the retirements before the switch belong to the
// first recorder and the rest, the SYSCALL's own included, to the
// second, whether the recorders store retirements or only count them.
func TestCountOnlyRetireSplitsAtReattach(t *testing.T) {
	const src = `
		movi r1, 7
		movi r2, 0
	loop:
		addi r2, r2, 1
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		syscall
		movi r3, 1
		halt
	`
	split := func(exclude bool) (first, second map[string]uint64) {
		a, b := telemetry.NewRecorder(0), telemetry.NewRecorder(0)
		if exclude {
			a.Exclude(telemetry.KindRetire)
			b.Exclude(telemetry.KindRetire)
		}
		c, _ := load(t, src, DefaultConfig())
		c.AttachTelemetry(a)
		c.OnSyscall = func(c *CPU) error { c.AttachTelemetry(b); return nil }
		mustRun(t, c, 1000)
		return a.Counts(), b.Counts()
	}
	storedA, storedB := split(false)
	countedA, countedB := split(true)
	if storedA["retire"] == 0 || storedB["retire"] != 3 {
		t.Fatalf("storing recorders saw %d and %d retirements, want some and 3", storedA["retire"], storedB["retire"])
	}
	if !reflect.DeepEqual(countedA, storedA) || !reflect.DeepEqual(countedB, storedB) {
		t.Errorf("count-only census %v / %v, want %v / %v", countedA, countedB, storedA, storedB)
	}
}

// TestSpecEpisodeEventsNest verifies the Perfetto-facing property: the
// cache fills emitted inside a speculation episode carry episode-local
// cycles bounded by the enter/squash bracket, so the exporter's B/E
// slices contain them.
func TestSpecEpisodeEventsNest(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	// Spectre-shaped: train the branch not-taken while keeping buf cold
	// (clflush each round); at i=5 the mispredicted, unresolved branch
	// runs the fall-through wrong path whose load misses — a cache fill
	// inside the episode.
	c, _ := load(t, `
		movi r9, buf
		movi r1, 0           ; i
	loop:
		clflush [r9]         ; keep the transient target cold
		store [sp-8], r1
		load r4, [sp-8]      ; in-flight value feeds the compare
		cmpi r4, 5
		jae done             ; not taken for i<5; at i=5 taken + mispredicted
		load r5, [r9]        ; wrong path at i=5: cold load -> episode fill
		addi r1, r1, 1
		jmp loop
	done:
		halt
	.data
	.align 64
	buf: .word 7
	`, DefaultConfig())
	c.AttachTelemetry(rec)
	mustRun(t, c, 1_000_000)

	evs := rec.Events()
	nested := 0
	for i, ev := range evs {
		if ev.Kind != telemetry.KindSpecEnter {
			continue
		}
		for j := i + 1; j < len(evs); j++ {
			e := evs[j]
			if e.Kind == telemetry.KindSpecSquash {
				if e.Cycle < ev.Cycle {
					t.Fatalf("episode closes at cycle %d before it opens at %d", e.Cycle, ev.Cycle)
				}
				break
			}
			if e.Kind == telemetry.KindCacheFill {
				nested++
				if e.Cycle < ev.Cycle {
					t.Fatalf("nested fill at cycle %d precedes episode start %d", e.Cycle, ev.Cycle)
				}
			}
		}
	}
	if nested == 0 {
		t.Fatal("no cache fills nested inside any speculation episode")
	}
}

// TestProbeAndSmashWindows drives a load through a registered probe
// window and a store over the smash watch and checks both events fire.
func TestProbeAndSmashWindows(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	c, img := load(t, `
		movi r1, buf
		load r2, [r1]        ; probe-window load
		movi r3, 0xbeef
		store [sp-8], r3     ; overwrites the watched slot
		halt
	.data
	.align 64
	buf: .word 7
	`, DefaultConfig())
	c.AttachTelemetry(rec)
	buf, ok := img.Symbol("buf")
	if !ok {
		t.Fatal("no buf symbol")
	}
	c.SetProbeWindow(buf, buf+64)
	c.SetSmashWatch(c.Regs[isa.RegSP]-8, 8)
	mustRun(t, c, 1000)
	counts := rec.Counts()
	if counts["covert_probe"] != 1 {
		t.Errorf("covert_probe = %d, want 1 (window [%#x,%#x))", counts["covert_probe"], buf, buf+64)
	}
	if counts["stack_smash"] != 1 {
		t.Errorf("stack_smash = %d, want 1", counts["stack_smash"])
	}
}
