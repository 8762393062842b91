package sched

import (
	"context"
	"errors"
	"testing"

	"repro/internal/telemetry"
)

// TestMapEmitsTaskEvents exercises the recorder and registry from many
// pool workers at once — the CI race job's target.
func TestMapEmitsTaskEvents(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	reg := telemetry.NewRegistry()
	ctx := WithSinks(context.Background(), Sinks{Recorder: rec, Registry: reg})

	const n = 64
	_, err := Map(ctx, 8, n, func(ctx context.Context, task int) (int, error) {
		// Tasks themselves emit too, as simulated machines do.
		rec.Emit(telemetry.Event{Kind: telemetry.KindRetire, Addr: uint64(task)})
		return task, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.Counts()
	if counts["task_start"] != n || counts["task_stop"] != n || counts["retire"] != n {
		t.Fatalf("counts = %v, want %d of each", counts, n)
	}
	if got := reg.Values()["sched.tasks_completed"]; got != n {
		t.Fatalf("sched.tasks_completed = %v, want %d", got, n)
	}
}

func TestMapCountsPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := WithSinks(context.Background(), Sinks{Registry: reg})
	_, err := Map(ctx, 2, 4, func(ctx context.Context, task int) (int, error) {
		if task == 1 {
			panic("boom")
		}
		return task, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := reg.Values()["sched.panics"]; got != 1 {
		t.Fatalf("sched.panics = %v, want 1", got)
	}
}

func TestContextCarriers(t *testing.T) {
	rec, reg := telemetry.NewRecorder(8), telemetry.NewRegistry()
	pool := NewTracker(reg, rec, nil).Pool("carried")
	ctx := WithSinks(t.Context(), Sinks{Recorder: rec, Registry: reg, Pool: pool})
	if got := sinksFrom(ctx); got.Recorder != rec || got.Registry != reg || got.Pool != pool {
		t.Fatalf("sinksFrom lost a sink: %+v", got)
	}
	if got := sinksFrom(t.Context()); got != (Sinks{}) {
		t.Fatalf("bare context should carry nil sinks, got %+v", got)
	}
}

// TestMapWithoutTelemetryUnchanged pins the disabled path: a bare
// context attaches no sinks and Map behaves exactly as before.
func TestMapWithoutTelemetryUnchanged(t *testing.T) {
	got, err := Map(context.Background(), 4, 8, func(ctx context.Context, task int) (int, error) {
		return task * task, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}
