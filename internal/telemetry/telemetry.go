// Package telemetry is the observability spine of the simulated
// platform: a fixed-capacity ring-buffer recorder for typed
// micro-architectural events, a metrics registry unifying the scattered
// per-subsystem counters behind named values, exporters (Chrome
// trace-event JSON for Perfetto, compact JSONL), and per-run manifests.
//
// The recorder is designed around a zero-overhead-when-off contract:
// every hook point in the simulator guards its emission with a single
// nil check (`if tel != nil`), so a core running without telemetry pays
// one predictable branch per hook and nothing else — no locks, no
// allocation, no indirect calls. When enabled, Emit takes a mutex (the
// internal/sched pool emits from many goroutines) and writes one
// fixed-size Event into the ring, overwriting the oldest entry when
// full; the ring starts empty and doubles up to its capacity as events
// arrive. A kind the recorder counts without storing (Exclude) costs an
// emitter nothing per event when it asks Stores once and reports its
// own tally with Add: the cpu core counts retirements that way, one Add
// per Run or Step instead of one Emit, and so one lock, per
// instruction. Per-kind counts are monotonic and independent of ring
// capacity, so event totals are deterministic for any worker count even
// though ring *contents* interleave.
//
// Hooks observe; they never mutate simulated state. Cycle counts,
// cache contents, predictor state and PMU counters are byte-identical
// with and without a recorder attached (enforced by
// cpu.TestTelemetryTimingNeutral).
package telemetry

import (
	"slices"
	"sync"
)

// Kind identifies one typed event class.
type Kind uint8

// The event taxonomy. Host-side events (task start/stop, rop plan) carry
// Cycle 0; simulated events are stamped with the emitting core's cycle.
const (
	// KindRetire is one retired (architectural) instruction; Val holds
	// the opcode.
	KindRetire Kind = iota
	// KindSpecEnter opens a wrong-path speculation episode at PC; Val is
	// the episode's deadline cycle.
	KindSpecEnter
	// KindSpecSquash closes a speculation episode; Val is the number of
	// wrong-path instructions squashed.
	KindSpecSquash
	// KindCacheFill is a demand fill (miss): Level is the level that
	// missed last (2 = filled from L2, 3 = filled from memory), Val the
	// access latency in cycles.
	KindCacheFill
	// KindCacheEvict is a line displaced by a fill or swept by co-tenant
	// interference; Level is the cache level.
	KindCacheEvict
	// KindCacheFlush is a CLFLUSH-style invalidation reaching a line.
	KindCacheFlush
	// KindBranchMispredict is a resolved conditional or indirect branch
	// that contradicted its prediction; Addr is the actual target.
	KindBranchMispredict
	// KindRetPivot is a RET whose popped return address contradicted the
	// RSB — the micro-architectural fingerprint of a ROP pivot. Addr is
	// the actual (popped) target, Val the stale prediction.
	KindRetPivot
	// KindStackSmash is a plain store overlapping the watched
	// saved-return-address slot (a buffer overflow reaching the frame),
	// or the canary abort syscall. Val is the value written.
	KindStackSmash
	// KindCovertProbe is a load touching the registered covert-channel
	// probe array — both the speculative transmit and the timed reload.
	// Val is the access latency.
	KindCovertProbe
	// KindExec is a SysExec pivot starting a registered binary.
	KindExec
	// KindTaskStart / KindTaskStop bracket one scheduler pool task;
	// Addr is the task index.
	KindTaskStart
	KindTaskStop
	// KindRopPlan records a built injection plan; Val is the chain
	// length in words, Addr the payload size in bytes.
	KindRopPlan
	// KindSchedStall is the stuck-worker watchdog firing: a pool task
	// exceeded its deadline. Addr is the task index, Val the seconds the
	// task has been running.
	KindSchedStall

	NumKinds // sentinel
)

var kindNames = [NumKinds]string{
	KindRetire:           "retire",
	KindSpecEnter:        "spec_enter",
	KindSpecSquash:       "spec_squash",
	KindCacheFill:        "cache_fill",
	KindCacheEvict:       "cache_evict",
	KindCacheFlush:       "cache_flush",
	KindBranchMispredict: "branch_mispredict",
	KindRetPivot:         "ret_pivot",
	KindStackSmash:       "stack_smash",
	KindCovertProbe:      "covert_probe",
	KindExec:             "exec",
	KindTaskStart:        "task_start",
	KindTaskStop:         "task_stop",
	KindRopPlan:          "rop_plan",
	KindSchedStall:       "sched_stall",
}

// KindByName resolves a wire name back to its Kind (the inverse of
// String; used by the obs event stream's kind filter and ReadJSONL).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return NumKinds, false
}

// String returns the kind's stable wire name (used by both exporters and
// the manifest event-count map).
func (k Kind) String() string {
	if k >= NumKinds {
		return "kind(?)"
	}
	return kindNames[k]
}

// Event is one recorded occurrence. The struct is fixed-size and
// value-typed so the ring never allocates per event.
type Event struct {
	Kind  Kind
	Level uint8  // cache level for cache events, else 0
	Seq   uint64 // recorder-assigned global sequence number
	Cycle uint64 // emitting core's cycle (0 for host-side events)
	PC    uint64 // program counter at emission, when meaningful
	Addr  uint64 // memory address / task index, per kind
	Val   uint64 // kind-specific payload (opcode, latency, count, ...)
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0.
const DefaultCapacity = 1 << 16

// minRing is the ring's first allocation, in events: a recorder holds
// no ring until it stores an event, then doubles from here up to its
// capacity.
const minRing = 16

// Recorder is the bounded event ring. A nil *Recorder is the
// disabled state: every hook site guards with a nil check and skips all
// work. All methods are safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	buf      []Event // grows to capacity; the ring wraps only once it is that long
	capacity int
	head     int    // next write position; len(buf) when the next write wraps or grows
	n        int    // live entries (<= len(buf))
	seq      uint64 // events assigned a sequence number (stored kinds only)
	mask     uint64 // kinds counted but not stored (bit k = Kind k excluded)
	counts   [NumKinds]uint64
}

// NewRecorder builds a recorder holding the last capacity events
// (DefaultCapacity when capacity <= 0). It allocates no ring: the ring
// grows as events are stored, so a run that stores a few events pays
// for a few.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Exclude stops retaining the given kinds in the ring. Excluded kinds
// are still counted — Counts stays the complete, deterministic census —
// but no longer occupy ring capacity. The batch CLIs exclude
// retirements: at one event per instruction they would evict every
// episode-structure event within ~one ring of instructions.
func (r *Recorder) Exclude(kinds ...Kind) {
	r.mu.Lock()
	for _, k := range kinds {
		if k < NumKinds {
			r.mask |= 1 << k
		}
	}
	r.mu.Unlock()
}

// Stores reports whether the ring keeps events of kind k, that is,
// whether Exclude has not hidden it. An emitter that learns a kind is
// count-only may tally it itself and report the tally with Add. The
// answer never turns from false to true: Exclude only adds kinds, and
// Reset keeps them.
func (r *Recorder) Stores(k Kind) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return k >= NumKinds || r.mask>>k&1 == 0
}

// Add counts n events of kind k without storing any: the census Emit
// would reach for n events of a kind Stores reports false for. Kinds
// out of range are ignored, as Emit ignores them in the census.
func (r *Recorder) Add(k Kind, n uint64) {
	if k >= NumKinds {
		return
	}
	r.mu.Lock()
	r.counts[k] += n
	r.mu.Unlock()
}

// Reset empties the ring and zeroes the sequence and every count,
// keeping the ring's capacity, the ring it has grown so far and the
// Exclude mask: a reset recorder observes the next run exactly as a new
// one configured the same way would.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.head, r.n, r.seq = 0, 0, 0
	r.counts = [NumKinds]uint64{}
	r.mu.Unlock()
}

// Emit appends one event, overwriting the oldest when the ring is full.
// The recorder assigns Seq; callers fill every other field.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	if ev.Kind < NumKinds {
		r.counts[ev.Kind]++
		if r.mask>>ev.Kind&1 == 1 {
			r.mu.Unlock()
			return
		}
	}
	ev.Seq = r.seq
	r.seq++
	if r.head == len(r.buf) {
		if len(r.buf) < r.capacity {
			r.grow()
		} else {
			r.head = 0
		}
	}
	r.buf[r.head] = ev
	r.head++
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// grow doubles the ring, from minRing up to the capacity. A ring
// shorter than its capacity has never wrapped, so its live events are
// exactly buf[:head], oldest first.
func (r *Recorder) grow() {
	size := min(max(2*len(r.buf), minRing), r.capacity)
	buf := make([]Event, size)
	copy(buf, r.buf[:r.head])
	r.buf = buf
}

// Events returns a copy of the retained events, oldest first.
func (r *Recorder) Events() []Event { return r.AppendEvents(nil) }

// AppendEvents appends the retained events, oldest first, to dst and
// returns the extended slice, so a caller that reads the ring run after
// run can reuse one buffer.
func (r *Recorder) AppendEvents(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = slices.Grow(dst, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	return dst
}

// EventsSince returns the retained events whose sequence number is >=
// cursor, oldest first, plus the next cursor to resume from. It is the
// tailing primitive behind the obs server's /events stream: a client
// repeatedly calls EventsSince with the returned cursor and sees every
// stored event exactly once — unless the ring wraps past it, in which
// case the overwritten events are skipped and the stream catches up at
// the oldest retained entry (the gap is observable as a jump in Seq).
// A nil recorder returns no events and an unchanged cursor.
func (r *Recorder) EventsSince(cursor uint64) ([]Event, uint64) {
	if r == nil {
		return nil, cursor
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.seq
	if cursor >= next {
		return nil, next
	}
	oldest := r.seq - uint64(r.n)
	if cursor < oldest {
		cursor = oldest // wrapped past: catch up at the oldest survivor
	}
	count := int(next - cursor)
	start := r.head - r.n + int(cursor-oldest)
	if start < 0 {
		start += len(r.buf)
	}
	out := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out, next
}

// Len returns the number of retained events (<= capacity).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total returns the number of events ever stored in the ring
// (monotonic; exceeds Len once the ring wraps). Kinds hidden with
// Exclude appear only in Counts.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(r.n)
}

// Counts returns the monotonic per-kind emission totals keyed by kind
// name. Totals are independent of ring capacity and deterministic for
// any scheduling of concurrent emitters.
func (r *Recorder) Counts() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, NumKinds)
	for k, c := range r.counts {
		if c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}
