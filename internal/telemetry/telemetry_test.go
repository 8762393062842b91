package telemetry

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
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
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Kind: KindTaskStart, Addr: uint64(g)})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Total(); got != goroutines*per {
		t.Fatalf("Total = %d, want %d", got, goroutines*per)
	}
	// Seq numbers in the retained window must be unique and ascending.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("non-ascending Seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
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

func TestContextCarriers(t *testing.T) {
	rec, reg := NewRecorder(8), NewRegistry()
	ctx := WithRegistry(NewContext(t.Context(), rec), reg)
	if FromContext(ctx) != rec {
		t.Fatal("FromContext lost the recorder")
	}
	if RegistryFrom(ctx) != reg {
		t.Fatal("RegistryFrom lost the registry")
	}
	if FromContext(t.Context()) != nil || RegistryFrom(t.Context()) != nil {
		t.Fatal("bare context should carry nil sinks")
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
