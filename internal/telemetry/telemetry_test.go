package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRecorderRingSemantics(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: KindRetire, PC: uint64(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		wantPC := uint64(i + 2) // oldest two overwritten
		if ev.PC != wantPC || ev.Seq != wantPC {
			t.Errorf("event %d = {PC:%d Seq:%d}, want PC=Seq=%d", i, ev.PC, ev.Seq, wantPC)
		}
	}
}

func TestRecorderCountsIndependentOfCapacity(t *testing.T) {
	small, big := NewRecorder(2), NewRecorder(1024)
	for i := 0; i < 100; i++ {
		k := KindRetire
		if i%10 == 0 {
			k = KindCacheFill
		}
		small.Emit(Event{Kind: k})
		big.Emit(Event{Kind: k})
	}
	if !reflect.DeepEqual(small.Counts(), big.Counts()) {
		t.Fatalf("counts differ by capacity: %v vs %v", small.Counts(), big.Counts())
	}
	want := map[string]uint64{"retire": 90, "cache_fill": 10}
	if got := small.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, want %v", got, want)
	}
}

func TestRecorderExcludeCountsButDoesNotStore(t *testing.T) {
	r := NewRecorder(8)
	r.Exclude(KindRetire)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KindRetire})
	}
	r.Emit(Event{Kind: KindCacheFill})
	want := map[string]uint64{"retire": 5, "cache_fill": 1}
	if got := r.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, want %v — excluded kinds must still be counted", got, want)
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != KindCacheFill {
		t.Fatalf("ring = %v, want only the cache fill", evs)
	}
	if evs[0].Seq != 0 {
		t.Errorf("stored Seq = %d, want 0 — excluded kinds must not consume sequence numbers", evs[0].Seq)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0 — exclusion is not wrap-around loss", r.Dropped())
	}

	// Reset forgets events, counts and sequence numbers but keeps the
	// exclusion mask: a wrapped ring starts over like a new one.
	for i := 0; i < 20; i++ {
		r.Emit(Event{Kind: KindCacheFill})
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || len(r.Counts()) != 0 {
		t.Fatalf("after Reset: len %d, total %d, dropped %d, counts %v", r.Len(), r.Total(), r.Dropped(), r.Counts())
	}
	r.Emit(Event{Kind: KindRetire})
	r.Emit(Event{Kind: KindCacheFill})
	if evs := r.Events(); len(evs) != 1 || evs[0].Kind != KindCacheFill || evs[0].Seq != 0 {
		t.Fatalf("after Reset: ring = %v, want one cache fill with Seq 0 and retirements still excluded", evs)
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder(64)
	r.Exclude(KindRetire)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Kind: KindTaskStart, Addr: uint64(g)})
			}
		}(g)
		// Count-only tallies arrive concurrently with the stored events,
		// as from cores flushing their retirements under the sched pool.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(KindRetire, uint64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Total(); got != goroutines*per {
		t.Fatalf("Total = %d, want %d", got, goroutines*per)
	}
	want := map[string]uint64{"task_start": goroutines * per, "retire": per * goroutines * (goroutines - 1) / 2}
	if got := r.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, want %v", got, want)
	}
	// Seq numbers in the retained window must be unique and ascending.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("non-ascending Seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestRecorderStoresAndAdd(t *testing.T) {
	r := NewRecorder(8)
	r.Exclude(KindRetire)
	for k := Kind(0); k <= NumKinds; k++ {
		if got, want := r.Stores(k), k != KindRetire; got != want {
			t.Errorf("Stores(%v) = %v, want %v", k, got, want)
		}
	}
	r.Add(KindRetire, 40)
	r.Emit(Event{Kind: KindRetire})
	r.Add(KindCacheFill, 2) // counted, never stored, even for a stored kind
	r.Add(NumKinds, 5)      // out of range: ignored, as Emit ignores it in the census
	want := map[string]uint64{"retire": 41, "cache_fill": 2}
	if got := r.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("Counts = %v, want %v", got, want)
	}
	if r.Len() != 0 || r.Total() != 0 {
		t.Errorf("Add stored events: len %d, total %d", r.Len(), r.Total())
	}
	r.Reset()
	if r.Stores(KindRetire) || len(r.Counts()) != 0 {
		t.Errorf("after Reset: Stores(retire) = %v, counts %v", r.Stores(KindRetire), r.Counts())
	}
}

// ringModel is a fixed-capacity ring written the plain way: every
// stored event since the last reset, of which the last capacity are
// retained.
type ringModel struct {
	capacity int
	stored   []Event
}

func (m *ringModel) emit(ev Event) {
	ev.Seq = uint64(len(m.stored))
	m.stored = append(m.stored, ev)
}

func (m *ringModel) retained() []Event {
	return m.stored[max(0, len(m.stored)-m.capacity):]
}

// TestRecorderRingGrowth drives the growing ring against the fixed-ring
// model: sequences shorter than, equal to and wrapping past capacity,
// with a Reset partway through that keeps what the ring has grown.
func TestRecorderRingGrowth(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 65, 1000} {
		for _, n := range []int{capacity / 2, capacity - 1, capacity, capacity + 1, 3*capacity + 5} {
			for _, resetAt := range []int{-1, n / 3, n} {
				r := NewRecorder(capacity)
				r.Exclude(KindRetire)
				m := &ringModel{capacity: capacity}
				step := 1 + capacity/16
				for i := 0; i < 2*n; i++ {
					if i == resetAt {
						r.Reset()
						m.stored = nil
					}
					if i%5 == 4 {
						r.Emit(Event{Kind: KindRetire}) // counted, not stored
					}
					ev := Event{Kind: KindCacheFill, Cycle: uint64(i), Val: uint64(i)}
					r.Emit(ev)
					m.emit(ev)
					if i%step == 0 || i == 2*n-1 || i == resetAt {
						checkRing(t, fmt.Sprintf("capacity %d, n %d, reset at %d, after %d", capacity, n, resetAt, i), r, m)
					}
				}
			}
		}
	}
}

// checkRing compares the recorder's read side with the model.
func checkRing(t *testing.T, at string, r *Recorder, m *ringModel) {
	t.Helper()
	want := m.retained()
	total := uint64(len(m.stored))
	if got := r.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Events = %v, want %v", at, got, want)
	}
	if r.Len() != len(want) || r.Total() != total || r.Dropped() != total-uint64(len(want)) {
		t.Fatalf("%s: Len %d, Total %d, Dropped %d; want %d, %d, %d",
			at, r.Len(), r.Total(), r.Dropped(), len(want), total, total-uint64(len(want)))
	}
	for _, cursor := range []uint64{0, total / 2, total - min(total, 1), total, total + 3} {
		got, next := r.EventsSince(cursor)
		since := []Event{}
		for _, ev := range want {
			if ev.Seq >= cursor {
				since = append(since, ev)
			}
		}
		if !reflect.DeepEqual(append([]Event{}, got...), since) || next != total {
			t.Fatalf("%s: EventsSince(%d) = %v, %d; want %v, %d", at, cursor, got, next, since, total)
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged
// over runs calls.
func allocBytes(runs int, f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestRecorderSmallRunAllocs gates the growing ring: a default recorder
// that stores 16 events (an attack job's worth) pays for those, not for
// a full ring, and a reset recorder reuses the ring it has grown.
func TestRecorderSmallRunAllocs(t *testing.T) {
	emit16 := func(r *Recorder) {
		for i := 0; i < 16; i++ {
			r.Emit(Event{Kind: KindRopPlan, Val: uint64(i)})
		}
	}
	if got := allocBytes(100, func() { emit16(NewRecorder(0)) }); got > 8<<10 {
		t.Errorf("NewRecorder(0) plus 16 events allocated %d bytes, want at most 8 KiB", got)
	}
	r := NewRecorder(0)
	emit16(r)
	if n := testing.AllocsPerRun(100, func() { r.Reset(); emit16(r) }); n != 0 {
		t.Errorf("Reset plus 16 events allocated %v times, want 0", n)
	}
}

func TestNilRecorderAndRegistryAreSafeSinks(t *testing.T) {
	var reg *Registry
	reg.Inc("x")
	reg.Add("x", 3)
	reg.Set("y", 1.5)
	if snap := reg.Snapshot(); snap != nil {
		t.Fatalf("nil registry Snapshot = %v, want nil", snap)
	}
	if vals := reg.Values(); vals != nil {
		t.Fatalf("nil registry Values = %v, want nil", vals)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Add("z.count", 2)
	reg.Inc("a.count")
	reg.Set("m.gauge", 3.25)
	snap := reg.Snapshot()
	want := []Metric{
		{Name: "a.count", Value: 1, Counter: true},
		{Name: "m.gauge", Value: 3.25},
		{Name: "z.count", Value: 2, Counter: true},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %+v, want %+v", snap, want)
	}
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Write produced no output")
	}
}

// chromeDoc mirrors the trace-event container for validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   uint64         `json:"ts"`
		Dur  uint64         `json:"dur"`
		PID  int            `json:"pid"`
		TID  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceNesting(t *testing.T) {
	events := []Event{
		{Kind: KindRetire, Cycle: 5},
		{Kind: KindSpecEnter, Cycle: 10, PC: 0x1000, Val: 260},
		{Kind: KindCacheFill, Cycle: 20, Addr: 0x8000, Level: 3, Val: 180},
		{Kind: KindCovertProbe, Cycle: 30, Addr: 0x8000, Val: 180},
		{Kind: KindSpecSquash, Cycle: 200, Val: 12},
		{Kind: KindTaskStart, Seq: 1, Addr: 7},
		{Kind: KindTaskStop, Seq: 2, Addr: 7},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Retire excluded: 6 of the 7 events survive.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(doc.TraceEvents))
	}
	// The speculation episode must open before and close after its
	// nested fill/probe, all on pid 0 / tid 0.
	b, e := doc.TraceEvents[0], doc.TraceEvents[3]
	if b.Ph != "B" || b.Name != "speculation" || e.Ph != "E" {
		t.Fatalf("episode bracket = %+v / %+v", b, e)
	}
	fill := doc.TraceEvents[1]
	if fill.Ph != "X" || fill.Name != "fill.MEM" || fill.Dur != 180 {
		t.Fatalf("fill slice = %+v", fill)
	}
	if !(b.TS <= fill.TS && fill.TS <= e.TS) {
		t.Fatalf("fill at ts %d not inside episode [%d,%d]", fill.TS, b.TS, e.TS)
	}
	if b.PID != 0 || fill.PID != 0 {
		t.Fatal("core events must share pid 0")
	}
	task := doc.TraceEvents[4]
	if task.PID != 1 || task.TID != 7 || task.Ph != "B" {
		t.Fatalf("task event = %+v", task)
	}
}

func TestWriteChromeTraceDropsOrphanSquash(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []Event{
		{Kind: KindSpecSquash, Cycle: 9}, // opener lost to ring wrap
		{Kind: KindSpecEnter, Cycle: 10},
		{Kind: KindSpecSquash, Cycle: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2 (orphan squash dropped)", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "B" || doc.TraceEvents[1].Ph != "E" {
		t.Fatalf("unbalanced B/E: %+v", doc.TraceEvents)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Kind: KindRetire, Seq: 0, Cycle: 1, PC: 0x40, Val: 7},
		{Kind: KindCacheFill, Seq: 1, Cycle: 9, Addr: 0xbeef, Val: 180, Level: 3},
		{Kind: KindRetPivot, Seq: 2, Cycle: 44, PC: 0x50, Addr: 0x99, Val: 0x60},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestManifestRoundTripAndZeroVolatile(t *testing.T) {
	reg := NewRegistry()
	reg.Add("cpu.retired", 123)
	rec := NewRecorder(8)
	rec.Emit(Event{Kind: KindSpecEnter})
	rec.Emit(Event{Kind: KindSpecSquash})

	m := NewManifest("testtool", []string{"-seed", "1"})
	m.Seed = 1
	m.Workers = 4
	m.Config = map[string]any{"samples": 40}
	m.Finish(time.Now().Add(-time.Millisecond), reg, rec)

	if m.Schema != ManifestSchema || m.Build.GoVersion == "" {
		t.Fatalf("missing provenance: %+v", m)
	}
	if m.WallSec <= 0 {
		t.Fatalf("WallSec = %v, want > 0", m.WallSec)
	}
	if m.Events["spec_enter"] != 1 || m.Events["spec_squash"] != 1 {
		t.Fatalf("Events = %v", m.Events)
	}
	if m.Metrics["cpu.retired"] != 123 {
		t.Fatalf("Metrics = %v", m.Metrics)
	}

	path := filepath.Join(t.TempDir(), "sub", "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare serialised forms: JSON decoding widens Config ints to
	// float64, so struct-level DeepEqual would spuriously differ.
	wantJSON, _ := m.MarshalIndent()
	gotJSON, _ := got.MarshalIndent()
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("file round trip mismatch:\n in=%s\nout=%s", wantJSON, gotJSON)
	}

	// Two manifests from "different hosts/runs" converge after
	// ZeroVolatile when their deterministic content matches.
	other := NewManifest("testtool", []string{"-seed", "1", "-workers", "9"})
	other.Seed, other.Workers, other.Config = 1, 4, map[string]any{"samples": 40}
	other.Host.Hostname = "elsewhere"
	other.Finish(time.Now().Add(-5*time.Millisecond), reg, rec)
	m.ZeroVolatile()
	other.ZeroVolatile()
	a, _ := m.MarshalIndent()
	b, _ := other.MarshalIndent()
	if !bytes.Equal(a, b) {
		t.Fatalf("ZeroVolatile manifests differ:\n%s\n---\n%s", a, b)
	}
}
