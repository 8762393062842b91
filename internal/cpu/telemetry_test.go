package cpu

import (
	"testing"

	"repro/internal/isa"
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

// TestTelemetryTimingNeutral is the differential check that hooks
// observe without perturbing: the same speculating program run with and
// without a recorder attached must produce identical architectural
// state and an identical PMU snapshot, cycle for cycle — while the
// observed run captures a non-trivial event stream.
func TestTelemetryTimingNeutral(t *testing.T) {
	run := func(rec *telemetry.Recorder) (*CPU, Snapshot) {
		c, _ := load(t, specSrc, DefaultConfig())
		if rec != nil {
			c.AttachTelemetry(rec)
		}
		mustRun(t, c, 1_000_000)
		return c, c.Snapshot()
	}
	rec := telemetry.NewRecorder(0)
	cOn, snapOn := run(rec)
	cOff, snapOff := run(nil)

	if snapOn != snapOff {
		t.Errorf("PMU snapshots diverge:\n  observed:   %+v\n  unobserved: %+v", snapOn, snapOff)
	}
	if cOn.Regs != cOff.Regs || cOn.PC != cOff.PC || cOn.Cycle != cOff.Cycle {
		t.Errorf("architectural state diverges: regs %v vs %v, pc %#x vs %#x, cycle %d vs %d",
			cOn.Regs, cOff.Regs, cOn.PC, cOff.PC, cOn.Cycle, cOff.Cycle)
	}

	counts := rec.Counts()
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
