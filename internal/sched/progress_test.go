package sched

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestPoolLifecycleCounts(t *testing.T) {
	tr := NewTracker(telemetry.NewRegistry(), nil, nil)
	ctx := WithSinks(context.Background(), Sinks{Tracker: tr}, "corpus")
	_, err := Map(ctx, 4, 20, func(ctx context.Context, task int) (int, error) {
		ObserveInstrs(ctx, 100)
		return task, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := tr.Progress()
	if len(prog) != 1 {
		t.Fatalf("pools: %d", len(prog))
	}
	p := prog[0]
	if p.Name != "corpus" || p.Submitted != 20 || p.Done != 20 || p.Failed != 0 || p.Running != 0 {
		t.Errorf("lifecycle wrong: %+v", p)
	}
	if p.Instrs != 2000 {
		t.Errorf("instrs = %d, want 2000", p.Instrs)
	}
	if p.LatencyMs.Count != 20 {
		t.Errorf("latency observations = %d, want 20", p.LatencyMs.Count)
	}
	if p.RatePerSec <= 0 {
		t.Errorf("rate not estimated: %+v", p)
	}
}

func TestPoolCountsFailures(t *testing.T) {
	tr := NewTracker(nil, nil, nil)
	ctx := WithSinks(context.Background(), Sinks{Tracker: tr}, "flaky")
	boom := errors.New("boom")
	// Workers=1 so exactly the failing task runs and cancels the rest.
	_, err := Map(ctx, 1, 5, func(_ context.Context, task int) (int, error) {
		if task == 0 {
			return 0, boom
		}
		return task, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	mp := tr.ManifestProgress()
	if len(mp) != 1 || mp[0].Failed != 1 || mp[0].Done != 1 {
		t.Errorf("failure accounting wrong: %+v", mp)
	}
}

func TestPoolAccumulatesAcrossMapCalls(t *testing.T) {
	tr := NewTracker(nil, nil, nil)
	ctx := WithSinks(context.Background(), Sinks{Tracker: tr}, "waves")
	for wave := 0; wave < 3; wave++ {
		if _, err := Map(ctx, 2, 4, func(ctx context.Context, task int) (int, error) {
			ObserveInstrs(ctx, 1)
			return task, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mp := tr.ManifestProgress()
	if len(mp) != 1 || mp[0].Submitted != 12 || mp[0].Done != 12 || mp[0].Instrs != 12 {
		t.Errorf("waves did not accumulate: %+v", mp)
	}
}

func TestManifestProgressWorkerInvariant(t *testing.T) {
	build := func(workers int) []byte {
		tr := NewTracker(telemetry.NewRegistry(), nil, nil)
		ctx := WithSinks(context.Background(), Sinks{Tracker: tr}, "det")
		if _, err := Map(ctx, workers, 32, func(ctx context.Context, task int) (int, error) {
			ObserveInstrs(ctx, uint64(DeriveSeed(1, uint64(task))&0xFFFF))
			return task, nil
		}); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tr.ManifestProgress())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one, eight := build(1), build(8)
	if string(one) != string(eight) {
		t.Errorf("manifest progress varies with workers:\n%s\nvs\n%s", one, eight)
	}
}

func TestTrackerProgressSortedByName(t *testing.T) {
	tr := NewTracker(nil, nil, nil)
	tr.Pool("zeta")
	tr.Pool("alpha")
	tr.Pool("mid")
	prog := tr.Progress()
	if len(prog) != 3 || prog[0].Name != "alpha" || prog[1].Name != "mid" || prog[2].Name != "zeta" {
		t.Errorf("pools unsorted: %+v", prog)
	}
}

func TestWatchdogEmitsStall(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	tr := NewTracker(reg, rec, nil)
	ctx := WithSinks(context.Background(), Sinks{Tracker: tr}, "stuck")

	release := make(chan struct{})
	mapDone := make(chan struct{})
	go func() {
		defer close(mapDone)
		_, _ = Map(ctx, 1, 1, func(context.Context, int) (int, error) {
			<-release
			return 0, nil
		})
	}()
	stop := tr.Watch(context.Background(), 50*time.Millisecond)
	defer stop()

	deadline := time.After(5 * time.Second)
	for reg.Values()["sched.stalls"] == 0 {
		select {
		case <-deadline:
			t.Fatal("watchdog never reported the stuck task")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(release)
	<-mapDone

	var stall *telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindSchedStall {
			ev := ev
			stall = &ev
		}
	}
	if stall == nil {
		t.Fatal("no sched_stall event emitted")
	}
	if stall.Addr != 0 {
		t.Errorf("stall task index = %d, want 0", stall.Addr)
	}
	// One stall event per stuck task, even across multiple scans.
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindSchedStall {
			n++
		}
	}
	if n != 1 {
		t.Errorf("stall reported %d times, want once", n)
	}
}

func TestNilTrackerAndPoolAreInert(t *testing.T) {
	var tr *Tracker
	if tr.Pool("x") != nil {
		t.Error("nil tracker handed out a pool")
	}
	if tr.Progress() != nil || tr.ManifestProgress() != nil {
		t.Error("nil tracker produced progress")
	}
	stop := tr.Watch(context.Background(), time.Second)
	stop()
	var p *Pool
	p.taskSubmitted(1)
	p.taskStarted(0)
	p.taskDone(0, false)
	p.AddInstrs(5)
	// ObserveInstrs on a bare context: no pool, no panic.
	ObserveInstrs(context.Background(), 7)
}

// BenchmarkMapBare pins the obs-disabled fast path: no recorder,
// registry, or pool in the context — Map must stay lookup-plus-nil-
// check cheap (the bench-smoke CI gate runs over code built this way).
func BenchmarkMapBare(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := Map(ctx, 4, 64, func(context.Context, int) (int, error) {
			return 0, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
