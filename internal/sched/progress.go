package sched

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Tracker aggregates campaign progress across every worker pool a run
// spins up: lifecycle totals per pool, wall-clock task latencies, an
// EWMA completion rate with an ETA, and a stuck-worker watchdog. It is
// the data source behind the obs server's /progress endpoint and the
// manifest's final progress snapshot.
//
// The disabled path is the usual telemetry contract: a nil *Tracker is
// a valid no-op sink, Pool returns nil, and Map pays one context lookup
// plus nil checks when no pool rides the context.
type Tracker struct {
	reg *telemetry.Registry
	rec *telemetry.Recorder
	log *slog.Logger

	mu    sync.Mutex
	pools map[string]*Pool
}

// NewTracker builds a tracker feeding the given sinks; any of them may
// be nil. Latency histograms are registered on reg as volatile (live
// /metrics surface only — wall-clock data never reaches a manifest).
func NewTracker(reg *telemetry.Registry, rec *telemetry.Recorder, log *slog.Logger) *Tracker {
	return &Tracker{reg: reg, rec: rec, log: log, pools: make(map[string]*Pool)}
}

// Pool returns the named pool, creating it on first use. Nil tracker
// returns nil (a valid no-op pool).
func (t *Tracker) Pool(name string) *Pool {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pools[name]; ok {
		return p
	}
	p := &Pool{
		name:    name,
		latency: t.reg.Histogram("sched."+name+".task_ms", true),
		started: time.Now(),
		running: make(map[int]taskStart),
	}
	t.pools[name] = p
	return p
}

// taskStart is one in-flight task's start stamp plus whether the
// watchdog already reported it stalled (one stall event per task).
type taskStart struct {
	at       time.Time
	reported bool
}

// Pool tracks one logical batch of Map work (a corpus, a soak, a
// campaign). A pool may span several Map calls — difftest's soak waves
// accumulate into one "difftest" pool. All methods are nil-safe.
type Pool struct {
	name    string
	latency *telemetry.Histogram

	submitted atomic.Uint64
	done      atomic.Uint64 // all finished tasks, including failures
	failed    atomic.Uint64 // subset of done that returned an error or panicked
	instrs    atomic.Uint64 // simulated instructions reported via ObserveInstrs

	mu       sync.Mutex
	started  time.Time
	running  map[int]taskStart
	lastDone time.Time
	ewmaGap  float64 // seconds between completions, EWMA (alpha below)
}

// ewmaAlpha weights the most recent inter-completion gap; ~0.2 tracks
// rate shifts within a handful of completions without thrashing on one
// slow task.
const ewmaAlpha = 0.2

func (p *Pool) taskSubmitted(n uint64) {
	if p == nil {
		return
	}
	p.submitted.Add(n)
}

func (p *Pool) taskStarted(task int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.running[task] = taskStart{at: time.Now()}
	p.mu.Unlock()
}

func (p *Pool) taskDone(task int, failed bool) {
	if p == nil {
		return
	}
	// The clock is read under the lock so completions stamp lastDone in
	// order: a stamp taken before another worker's later one would make
	// a negative gap and could drive the estimate to zero or below.
	p.mu.Lock()
	now := time.Now()
	if ts, ok := p.running[task]; ok {
		delete(p.running, task)
		p.latency.Observe(uint64(now.Sub(ts.at).Milliseconds()))
	}
	if p.lastDone.IsZero() {
		p.ewmaGap = now.Sub(p.started).Seconds()
	} else {
		p.ewmaGap = ewmaAlpha*now.Sub(p.lastDone).Seconds() + (1-ewmaAlpha)*p.ewmaGap
	}
	p.lastDone = now
	p.mu.Unlock()
	p.done.Add(1)
	if failed {
		p.failed.Add(1)
	}
}

// AddInstrs credits simulated retired instructions to the pool; tasks
// report through ObserveInstrs rather than holding a *Pool.
func (p *Pool) AddInstrs(n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.instrs.Add(n)
}

// ObserveInstrs credits n simulated instructions to the context's pool;
// a no-op when no pool rides the context. Tasks call this with the
// machine's retired-instruction count so /progress can report campaign
// throughput in Minstr/s.
func ObserveInstrs(ctx context.Context, n uint64) {
	sinksFrom(ctx).Pool.AddInstrs(n)
}

// PoolProgress is one pool's live progress snapshot — the /progress
// endpoint's JSON shape. Rates, ETA and latency are wall-clock-derived
// and therefore live-only; the manifest records the invariant subset
// (see Tracker.ManifestProgress).
type PoolProgress struct {
	Name             string                      `json:"name"`
	Submitted        uint64                      `json:"submitted"`
	Running          int                         `json:"running"`
	Done             uint64                      `json:"done"`
	Failed           uint64                      `json:"failed"`
	Instrs           uint64                      `json:"instrs"`
	ElapsedSec       float64                     `json:"elapsed_sec"`
	RatePerSec       float64                     `json:"rate_per_sec"`
	MinstrPerSec     float64                     `json:"minstr_per_sec"`
	ETASec           float64                     `json:"eta_sec,omitempty"`
	OldestRunningSec float64                     `json:"oldest_running_sec,omitempty"`
	LatencyMs        telemetry.HistogramSnapshot `json:"latency_ms"`
}

func (p *Pool) snapshot(now time.Time) PoolProgress {
	p.mu.Lock()
	elapsed := now.Sub(p.started).Seconds()
	running := len(p.running)
	var oldest float64
	for _, ts := range p.running {
		if age := now.Sub(ts.at).Seconds(); age > oldest {
			oldest = age
		}
	}
	gap := p.ewmaGap
	p.mu.Unlock()

	pp := PoolProgress{
		Name:             p.name,
		Submitted:        p.submitted.Load(),
		Running:          running,
		Done:             p.done.Load(),
		Failed:           p.failed.Load(),
		Instrs:           p.instrs.Load(),
		ElapsedSec:       elapsed,
		OldestRunningSec: oldest,
		LatencyMs:        p.latency.Snapshot(),
	}
	if gap > 0 {
		pp.RatePerSec = 1 / gap
		if rem := pp.Submitted - pp.Done; pp.Submitted >= pp.Done && rem > 0 {
			pp.ETASec = float64(rem) * gap
		}
	}
	if elapsed > 0 {
		pp.MinstrPerSec = float64(pp.Instrs) / elapsed / 1e6
	}
	return pp
}

// Progress snapshots every pool, sorted by name. Nil tracker → nil.
func (t *Tracker) Progress() []PoolProgress {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	pools := make([]*Pool, 0, len(t.pools))
	for _, p := range t.pools {
		pools = append(pools, p)
	}
	t.mu.Unlock()
	out := make([]PoolProgress, 0, len(pools))
	for _, p := range pools {
		out = append(out, p.snapshot(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ManifestProgress returns the worker-count-invariant subset of every
// pool's progress, sorted by name — what a manifest's Progress
// records. Lifecycle totals and instruction counts depend only on the
// task set, never on scheduling, so two runs of the same configuration
// at different -workers values record byte-identical progress.
func (t *Tracker) ManifestProgress() []telemetry.ProgressPool {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	pools := make([]*Pool, 0, len(t.pools))
	for _, p := range t.pools {
		pools = append(pools, p)
	}
	t.mu.Unlock()
	out := make([]telemetry.ProgressPool, 0, len(pools))
	for _, p := range pools {
		out = append(out, telemetry.ProgressPool{
			Name:      p.name,
			Submitted: p.submitted.Load(),
			Done:      p.done.Load(),
			Failed:    p.failed.Load(),
			Instrs:    p.instrs.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Watch starts the stuck-worker watchdog: every scan interval it looks
// for tasks that have been running longer than stallAfter, and for each
// newly stuck task emits one telemetry.KindSchedStall event
// (Addr=task index, Val=seconds running), bumps the sched.stalls
// counter, logs the stall, and dumps all goroutine stacks once per scan
// that finds new stalls. The returned stop function halts the watchdog
// and waits for it to exit; cancelling ctx does the same.
func (t *Tracker) Watch(ctx context.Context, stallAfter time.Duration) (stop func()) {
	if t == nil || stallAfter <= 0 {
		return func() {}
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	interval := stallAfter / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-wctx.Done():
				return
			case now := <-tick.C:
				t.scanStalls(now, stallAfter)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

func (t *Tracker) scanStalls(now time.Time, stallAfter time.Duration) {
	type stall struct {
		pool string
		task int
		age  time.Duration
	}
	t.mu.Lock()
	pools := make([]*Pool, 0, len(t.pools))
	for _, p := range t.pools {
		pools = append(pools, p)
	}
	t.mu.Unlock()
	var stalls []stall
	for _, p := range pools {
		p.mu.Lock()
		for task, ts := range p.running {
			if !ts.reported && now.Sub(ts.at) >= stallAfter {
				ts.reported = true
				p.running[task] = ts
				stalls = append(stalls, stall{p.name, task, now.Sub(ts.at)})
			}
		}
		p.mu.Unlock()
	}
	if len(stalls) == 0 {
		return
	}
	sort.Slice(stalls, func(i, j int) bool {
		if stalls[i].pool != stalls[j].pool {
			return stalls[i].pool < stalls[j].pool
		}
		return stalls[i].task < stalls[j].task
	})
	for _, s := range stalls {
		t.reg.Inc("sched.stalls")
		if t.rec != nil {
			t.rec.Emit(telemetry.Event{
				Kind: telemetry.KindSchedStall,
				Addr: uint64(s.task),
				Val:  uint64(s.age.Seconds()),
			})
		}
		if t.log != nil {
			t.log.Warn("sched stall: task exceeded watchdog deadline",
				"pool", s.pool, "task", s.task, "running_sec", s.age.Seconds())
		} else {
			fmt.Fprintf(os.Stderr, "sched: stall: pool %s task %d running %.1fs\n",
				s.pool, s.task, s.age.Seconds())
		}
	}
	dump := goroutineDump()
	if t.log != nil {
		t.log.Warn("sched stall: goroutine dump", "stacks", dump)
	} else {
		fmt.Fprintf(os.Stderr, "sched: stall: goroutine dump:\n%s\n", dump)
	}
}

// goroutineDump captures all goroutine stacks, growing the buffer until
// the dump fits (runtime.Stack truncates silently otherwise).
func goroutineDump() string {
	buf := make([]byte, 1<<17)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
