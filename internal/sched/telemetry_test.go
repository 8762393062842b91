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
	ctx := WithSinks(context.Background(), Sinks{Telemetry: rec, Metrics: reg}, "")

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
	ctx := WithSinks(context.Background(), Sinks{Metrics: reg}, "")
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
	tr := NewTracker(reg, rec, nil)
	ctx := WithSinks(t.Context(), Sinks{Telemetry: rec, Metrics: reg, Tracker: tr}, "carried")
	if got := sinksFrom(ctx); got.Telemetry != rec || got.Metrics != reg || got.pool != tr.Pool("carried") {
		t.Fatalf("sinksFrom lost a sink: %+v", got)
	}
	if got := sinksFrom(t.Context()); got != (poolSinks{}) {
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
