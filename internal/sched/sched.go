// Package sched is the parallel experiment engine: a bounded worker
// pool that fans independent simulated-machine runs out across cores
// while keeping every result byte-identical to a sequential run.
//
// The paper's evaluation is embarrassingly parallel — every corpus
// trace, every campaign simulation and every Table-I repetition is an
// independent machine — so Map distributes tasks over a fixed number of
// goroutines, captures per-task panics as errors, honours context
// cancellation, and returns results in task order regardless of
// completion order.
//
// # Determinism and the per-task RNG-derivation rule
//
// The detectors are statistical, so the fan-out must be provably
// deterministic: a run with Workers=8 must produce byte-identical
// results to Workers=1. Goroutine scheduling is not deterministic,
// therefore NO random state may be threaded through the task stream.
// The rules every caller must follow:
//
//  1. Never share a *rand.Rand (or any sequentially-advanced seed
//     counter such as `seed++`) across tasks. math/rand's Rand is also
//     unsafe for concurrent use, so sharing one is a data race as well
//     as a determinism bug.
//  2. Derive each task's seed purely from (base seed, task index) with
//     DeriveSeed — a splitmix64 mix — and construct any *rand.Rand
//     inside the task from that derived seed (see Rand).
//  3. Nested derivation is chained: a task that itself loops derives
//     per-iteration seeds with DeriveSeed(taskSeed, iteration).
//  4. Reduce results in task-index order (Map already returns them
//     ordered); floating-point accumulation order is part of the
//     byte-identical contract.
//
// These rules are enforced by the golden determinism tests in
// internal/experiments and by `go test -race ./...` in CI.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), the engine-wide default.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeed maps a base seed and a task index to an independent child
// seed using the splitmix64 finaliser. The mapping is pure (no shared
// state), collision-resistant in practice, and gives statistically
// independent streams for adjacent indices — the property the corpus
// builders rely on when replacing sequential `seed++` threading.
func DeriveSeed(base int64, index uint64) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Rand builds a private *rand.Rand for one task from the derived seed
// stream — the only sanctioned way to obtain an RNG inside a Map task.
func Rand(base int64, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(base, index)))
}

// Sinks are one run's telemetry sinks, the handle a run passes from its
// flags to every worker pool: typed events go to the recorder, counters
// to the registry, and per-pool progress to the tracker. Each may be
// nil, and every consumer treats nil as off.
type Sinks struct {
	Telemetry *telemetry.Recorder
	Metrics   *telemetry.Registry
	Tracker   *Tracker
}

// NewSinks builds all three sinks of a run: a recorder on the default
// ring that counts the excluded kinds without storing them, a registry,
// and a tracker feeding both that logs through log (nil for none).
func NewSinks(log *slog.Logger, exclude ...telemetry.Kind) Sinks {
	rec := telemetry.NewRecorder(0)
	rec.Exclude(exclude...)
	reg := telemetry.NewRegistry()
	return Sinks{Telemetry: rec, Metrics: reg, Tracker: NewTracker(reg, rec, log)}
}

// Finish records the tracker's final progress into m and drains the
// registry and recorder into it (telemetry.Manifest.Finish); start is
// when the run began.
func (s Sinks) Finish(m *telemetry.Manifest, start time.Time) {
	m.Progress = s.Tracker.ManifestProgress()
	m.Finish(start, s.Metrics, s.Telemetry)
}

// poolSinks is what rides a pool's context: the run's sinks and the
// tracker pool its Map calls report into.
type poolSinks struct {
	Sinks
	pool *Pool
}

type sinksKey struct{}

// WithSinks returns a context whose Map calls, and the tasks they run,
// report into s, with progress going to the tracker's pool of that name.
func WithSinks(ctx context.Context, s Sinks, pool string) context.Context {
	return context.WithValue(ctx, sinksKey{}, poolSinks{s, s.Tracker.Pool(pool)})
}

// sinksFrom extracts the sinks riding the context; all nil when none do.
func sinksFrom(ctx context.Context) poolSinks {
	s, _ := ctx.Value(sinksKey{}).(poolSinks)
	return s
}

// PanicError surfaces a panic captured inside a pool task.
type PanicError struct {
	Task  int
	Value any
	Stack []byte
}

// Error renders the panic value with the captured goroutine stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the results ordered by task index. A worker
// count <= 0 selects Workers(0). The first task error (or captured
// panic, wrapped as *PanicError) cancels the pool context; tasks
// already running finish, undispatched tasks are skipped, and the
// lowest-index recorded error is returned. Cancellation of the parent
// context is likewise surfaced as its error.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, task int) (T, error)) ([]T, error) {
	return mapTasks[struct{}](ctx, workers, n, fn, nil)
}

// MapLocal is Map with worker-local state: every worker goroutine owns
// one L, zero-valued when the worker starts, and hands a pointer to it to
// each task it runs. Tasks use it to reuse expensive scratch — the
// analyzer's taint scratch, or a gadget machine reset in place rather
// than rebuilt — without a shared pool; nothing else may touch it, so it
// needs no locking. Which tasks share a local
// depends on scheduling, so a task's result must not depend on what an
// earlier task left in it: the determinism contract holds only for
// state a task fully resets before use.
func MapLocal[L, T any](ctx context.Context, workers, n int, fn func(ctx context.Context, local *L, task int) (T, error)) ([]T, error) {
	return mapTasks(ctx, workers, n, nil, fn)
}

// mapTasks is the one worker loop behind Map and MapLocal; exactly one of
// fn and localFn is non-nil.
func mapTasks[L, T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error), localFn func(context.Context, *L, int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n <= 0 {
		return results, ctx.Err()
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Telemetry sinks and the progress pool ride the context (the Map
	// signature predates them); all are nil-safe, so unobserved pools pay
	// only this one lookup.
	sinks := sinksFrom(ctx)
	rec, reg, pool := sinks.Telemetry, sinks.Metrics, sinks.pool
	pool.taskSubmitted(uint64(n))

	errs := make([]error, n)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	run := func(local *L, task int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Task: task, Value: r, Stack: debug.Stack()}
				reg.Inc("sched.panics")
			}
			if rec != nil {
				rec.Emit(telemetry.Event{Kind: telemetry.KindTaskStop, Addr: uint64(task)})
			}
			reg.Inc("sched.tasks_completed")
			pool.taskDone(task, err != nil)
		}()
		if rec != nil {
			rec.Emit(telemetry.Event{Kind: telemetry.KindTaskStart, Addr: uint64(task)})
		}
		pool.taskStarted(task)
		if fn != nil {
			results[task], err = fn(pctx, task)
		} else {
			results[task], err = localFn(pctx, local, task)
		}
		return err
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local L
			for {
				task := int(next.Add(1)) - 1
				if task >= n || pctx.Err() != nil {
					return
				}
				if err := run(&local, task); err != nil {
					errs[task] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}
