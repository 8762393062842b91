package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	out, err := Map(context.Background(), 8, 100, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // jumble completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("got %d results", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := Map(context.Background(), 2, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); n == 1000 {
		t.Error("error did not stop dispatch: all 1000 tasks ran")
	}
}

func TestMapPanicSurfacedAsError(t *testing.T) {
	_, err := Map(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Task != 5 {
		t.Errorf("panic attributed to task %d, want 5", pe.Task)
	}
	if !strings.Contains(pe.Error(), "kaboom") || len(pe.Stack) == 0 {
		t.Errorf("panic error missing value or stack: %v", pe)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, 4, 10, func(_ context.Context, i int) (int, error) {
		return 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 10 {
		t.Fatalf("results slice sized %d", len(out))
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestMapNested: a task spawning its own pool must not deadlock (each
// Map owns its goroutines; there is no shared fixed-size pool to
// exhaust).
func TestMapNested(t *testing.T) {
	out, err := Map(context.Background(), 2, 4, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, 2, 4, func(_ context.Context, j int) (int, error) {
			return i*10 + j, nil
		})
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := i*40 + 6
		if v != want {
			t.Fatalf("task %d sum = %d, want %d", i, v, want)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := Map(context.Background(), workers, 64, func(_ context.Context, i int) (int64, error) {
			rng := Rand(42, uint64(i))
			return rng.Int63(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, eight := run(1), run(8)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("task %d diverged across worker counts: %d vs %d", i, one[i], eight[i])
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]uint64{}
	for idx := uint64(0); idx < 10_000; idx++ {
		s := DeriveSeed(1, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", prev, idx)
		}
		seen[s] = idx
	}
	if DeriveSeed(1, 7) != DeriveSeed(1, 7) {
		t.Error("DeriveSeed not pure")
	}
	if DeriveSeed(1, 7) == DeriveSeed(2, 7) {
		t.Error("base seed ignored")
	}
	// Zero base and zero index must still give a usable, mixed seed.
	if DeriveSeed(0, 0) == 0 {
		t.Error("degenerate zero seed")
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
}

func TestMapErrorIsLowestIndexRecorded(t *testing.T) {
	// With 1 worker the dispatch is sequential, so the first failing
	// index is deterministic.
	wantErr := fmt.Errorf("task 2 failed")
	_, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		if i >= 2 {
			return 0, wantErr
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

// TestMapLocalPerWorkerState: every worker hands its own zero-valued
// local to the tasks it runs, so tasks reuse it without locking (the
// race detector checks no two workers share one) and results stay in
// task order.
func TestMapLocalPerWorkerState(t *testing.T) {
	const workers, n = 4, 200
	out, err := MapLocal(context.Background(), workers, n, func(_ context.Context, runs *int, i int) ([2]int, error) {
		*runs++
		if i%9 == 0 {
			time.Sleep(time.Millisecond) // let other workers interleave
		}
		return [2]int{i, *runs}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	firsts := 0
	for i, r := range out {
		if r[0] != i {
			t.Fatalf("result %d came from task %d", i, r[0])
		}
		if r[1] == 1 {
			firsts++
		}
	}
	if firsts < 1 || firsts > workers {
		t.Errorf("%d tasks saw a fresh local, want 1..%d (one per worker that ran)", firsts, workers)
	}
}
