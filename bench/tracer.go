package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// The traced run records spans from the benchmark's own code, around
// each call it makes into a layer of the program; the program itself
// carries no instrumentation. A span's layer is the package name before
// the first dot of its name ("vm.new" belongs to vm). Spans named "op" or
// "stage.*" belong to no layer: their self time is orchestration the
// layer spans do not cover (bench.unattributed_share).
//
// Spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (Perfetto and chrome://tracing load it).

// span is one recorded interval.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent int           // ids start at 1; parent 0 is the root
	op         int           // the op the span belongs to
	lane       int           // trace-viewer row: one per concurrently running task
}

// frame is the tracing position a context carries: the enclosing span,
// its op and its lane.
type frame struct{ id, op, lane int }

type frameKey struct{}

// tracer records spans and work counters for one traced run. It is safe
// for concurrent use by the engine's worker goroutines. A nil tracer
// records nothing, so code shared by traced and untraced ops needs no
// branches.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	free   []int // released lanes, reused lowest first
	lanes  int
	counts map[string]float64

	// Scheduler occupancy, summed over every sched.Map the replicas issue.
	mapBusy, mapCapacity time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

func frameOf(ctx context.Context) frame {
	f, _ := ctx.Value(frameKey{}).(frame)
	return f
}

// op opens the root span of op number op on a fresh lane.
func (t *tracer) op(ctx context.Context, op int) (context.Context, func()) {
	lane := t.acquireLane()
	ctx = context.WithValue(ctx, frameKey{}, frame{op: op, lane: lane})
	ctx, end := t.span(ctx, "op")
	return ctx, func() {
		end()
		t.releaseLane(lane)
	}
}

// span opens a child of the context's current span; the returned func
// closes it.
func (t *tracer) span(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	f := frameOf(ctx)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), id: id, parent: f.id, op: f.op, lane: f.lane})
	t.mu.Unlock()
	return context.WithValue(ctx, frameKey{}, frame{id: id, op: f.op, lane: f.lane}), func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].end = end
		t.mu.Unlock()
	}
}

// count adds v to a named work counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) acquireLane() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		sort.Ints(t.free)
		lane := t.free[0]
		t.free = t.free[1:]
		return lane
	}
	t.lanes++
	return t.lanes
}

func (t *tracer) releaseLane(lane int) {
	t.mu.Lock()
	t.free = append(t.free, lane)
	t.mu.Unlock()
}

// tmap is sched.Map with a "sched.map" span around it and each task on
// its own lane. It also records how much of the pool's capacity the
// tasks kept busy (sched.busy_share).
func tmap[T any](ctx context.Context, t *tracer, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	ctx, end := t.span(ctx, "sched.map")
	defer end()
	var busy atomic.Int64
	start := time.Now()
	out, err := sched.Map(ctx, workers, n, func(ctx context.Context, i int) (T, error) {
		lane := t.acquireLane()
		defer t.releaseLane(lane)
		f := frameOf(ctx)
		f.lane = lane
		ctx = context.WithValue(ctx, frameKey{}, f)
		taskStart := time.Now()
		defer func() { busy.Add(int64(time.Since(taskStart))) }()
		return fn(ctx, i)
	})
	wall := time.Since(start)
	t.mu.Lock()
	t.mapBusy += time.Duration(busy.Load())
	t.mapCapacity += time.Duration(min(sched.Workers(workers), n)) * wall
	t.mu.Unlock()
	return out, err
}

// layerOf names the layer a span belongs to ("" for op and stage spans).
func layerOf(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 || name[:i] == "stage" {
		return ""
	}
	return name[:i]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one span may run
// in parallel, so their intervals are merged before subtracting. Spans
// still open are skipped.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.end < s.start {
			continue
		}
		self[s.id] = s.end - s.start - covered(s, kids[s.id])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// opSpans returns the spans of the given ops with their self times.
func (t *tracer) opSpans(ops map[int]bool) ([]span, map[int]time.Duration) {
	t.mu.Lock()
	var mine []span
	for _, s := range t.spans {
		if ops[s.op] {
			mine = append(mine, s)
		}
	}
	t.mu.Unlock()
	return mine, selfTimes(mine)
}

// layerSelf sums self time per layer ("" for op and stage spans) over
// the spans of the given ops, and over all of them: the layers' sums
// plus the unattributed one add up to the total.
func (t *tracer) layerSelf(ops map[int]bool) (byLayer map[string]time.Duration, total time.Duration) {
	spans, self := t.opSpans(ops)
	byLayer = map[string]time.Duration{}
	for _, s := range spans {
		byLayer[layerOf(s.name)] += self[s.id]
		total += self[s.id]
	}
	return byLayer, total
}

// nameSelf sums the self time of the given ops' spans with one name.
func (t *tracer) nameSelf(ops map[int]bool, name string) time.Duration {
	spans, self := t.opSpans(ops)
	var d time.Duration
	for _, s := range spans {
		if s.name == name {
			d += self[s.id]
		}
	}
	return d
}

// busyShare reports the tasks' busy time over the pools' capacity.
func (t *tracer) busyShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mapCapacity <= 0 {
		return 0
	}
	return float64(t.mapBusy) / float64(t.mapCapacity)
}

// chromeEvent is one complete ("X") event of the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every closed span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < s.start {
			continue
		}
		cat := layerOf(s.name)
		if cat == "" {
			cat = "bench"
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"op": s.op, "id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
