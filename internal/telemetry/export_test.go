package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// chromeEvent is one entry of the Chrome trace-event format, as the
// reference builder below encodes it.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func hexArg(v uint64) string { return fmt.Sprintf("%#x", v) }

// referenceChromeTrace is the trace builder WriteChromeTrace replaced:
// the whole document as Go values, one args map per event, encoded by
// encoding/json in one piece. WriteChromeTrace must write exactly its
// bytes.
func referenceChromeTrace(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events))
	depth := 0
	for _, ev := range events {
		switch ev.Kind {
		case KindRetire:
			// Omitted: see WriteChromeTrace.
		case KindSpecEnter:
			depth++
			out = append(out, chromeEvent{
				Name: "speculation", Cat: "spec", Ph: "B", TS: ev.Cycle,
				Args: map[string]any{"pc": hexArg(ev.PC), "deadline": ev.Val},
			})
		case KindSpecSquash:
			if depth == 0 {
				continue
			}
			depth--
			out = append(out, chromeEvent{
				Name: "speculation", Cat: "spec", Ph: "E", TS: ev.Cycle,
				Args: map[string]any{"squashed": ev.Val},
			})
		case KindCacheFill:
			name := "fill.L2"
			if ev.Level >= 3 {
				name = "fill.MEM"
			}
			out = append(out, chromeEvent{
				Name: name, Cat: "cache", Ph: "X", TS: ev.Cycle, Dur: ev.Val,
				Args: map[string]any{"addr": hexArg(ev.Addr)},
			})
		case KindCacheEvict, KindCacheFlush, KindBranchMispredict,
			KindRetPivot, KindStackSmash, KindCovertProbe, KindExec, KindRopPlan,
			KindSchedStall:
			out = append(out, chromeEvent{
				Name: ev.Kind.String(), Cat: "event", Ph: "i", TS: ev.Cycle, S: "t",
				Args: map[string]any{
					"pc": hexArg(ev.PC), "addr": hexArg(ev.Addr), "val": ev.Val,
				},
			})
		case KindTaskStart:
			out = append(out, chromeEvent{
				Name: "task", Cat: "sched", Ph: "B", TS: ev.Seq, PID: 1, TID: ev.Addr,
			})
		case KindTaskStop:
			out = append(out, chromeEvent{
				Name: "task", Cat: "sched", Ph: "E", TS: ev.Seq, PID: 1, TID: ev.Addr,
			})
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}

// mixedEvents returns n events cycling through every kind, one out of
// range, with field values spread over their ranges: the shape of a
// long traced run's ring.
func mixedEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		u := uint64(i)
		evs[i] = Event{
			Kind: Kind(i % int(NumKinds+1)), Level: uint8(i % 5), Seq: u,
			Cycle: u * 977, PC: 0x10000 + u*8, Addr: u * 0x9e3779b97f4a7c15, Val: u * 31,
		}
	}
	return evs
}

// TestWriteChromeTraceAllocs gates the streamed writer: a full default
// ring of mixed events costs the writer's buffers, not a document.
func TestWriteChromeTraceAllocs(t *testing.T) {
	events := mixedEvents(DefaultCapacity)
	var err error
	got := allocBytes(3, func() { err = WriteChromeTrace(io.Discard, events) })
	if err != nil {
		t.Fatal(err)
	}
	if got > 64<<10 {
		t.Errorf("WriteChromeTrace over %d events allocated %d bytes, want at most 64 KiB", len(events), got)
	}
}

// failingWriter fails every write.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteChromeTraceWriterError checks a failing writer's error is
// returned, whether the trace fits the writer's buffer or not.
func TestWriteChromeTraceWriterError(t *testing.T) {
	sentinel := errors.New("disk full")
	for _, n := range []int{0, 10, DefaultCapacity} {
		if err := WriteChromeTrace(failingWriter{sentinel}, mixedEvents(n)); !errors.Is(err, sentinel) {
			t.Errorf("%d events: err = %v, want the writer's error", n, err)
		}
	}
}

// BenchmarkWriteChromeTrace writes a full default ring of mixed events;
// run it with -benchmem.
func BenchmarkWriteChromeTrace(b *testing.B) {
	events := mixedEvents(DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExportersEmptyRing pins the degenerate case every exporter must
// survive: a recorder that never saw an event.
func TestExportersEmptyRing(t *testing.T) {
	rec := NewRecorder(16)
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, rec.Events()); err != nil {
		t.Fatalf("chrome trace over empty ring: %v", err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty ring produced %d trace events", len(doc.TraceEvents))
	}
	var jl bytes.Buffer
	if err := WriteJSONL(&jl, rec.Events()); err != nil {
		t.Fatalf("jsonl over empty ring: %v", err)
	}
	if jl.Len() != 0 {
		t.Errorf("empty ring produced jsonl output %q", jl.String())
	}
	back, err := ReadJSONL(&jl)
	if err != nil || len(back) != 0 {
		t.Errorf("reading empty jsonl: %v, %d events", err, len(back))
	}
	if evs, next := rec.EventsSince(0); len(evs) != 0 || next != 0 {
		t.Errorf("EventsSince on empty ring: %d events, cursor %d", len(evs), next)
	}
}

// TestExportersAllKindsExcluded pins the counts-only configuration: a
// mask excluding every kind keeps the census complete while the ring —
// and therefore every exporter and the /events stream — stays empty.
func TestExportersAllKindsExcluded(t *testing.T) {
	rec := NewRecorder(16)
	all := make([]Kind, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		all[k] = k
	}
	rec.Exclude(all...)
	for k := Kind(0); k < NumKinds; k++ {
		rec.Emit(Event{Kind: k, Val: uint64(k)})
	}
	if rec.Len() != 0 || rec.Total() != 0 {
		t.Fatalf("excluded kinds stored: len=%d total=%d", rec.Len(), rec.Total())
	}
	if got := len(rec.Counts()); got != int(NumKinds) {
		t.Errorf("census incomplete under full mask: %d kinds", got)
	}
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if evs, next := rec.EventsSince(0); len(evs) != 0 || next != 0 {
		t.Errorf("EventsSince under full mask: %d events, cursor %d", len(evs), next)
	}
}

// TestEventsSinceCursorSemantics pins the tailing contract: a cursor
// sees each stored event exactly once, in order, across repeated calls.
func TestEventsSinceCursorSemantics(t *testing.T) {
	rec := NewRecorder(64)
	var cursor uint64
	var got []uint64
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 7; i++ {
			rec.Emit(Event{Kind: KindExec, Val: uint64(batch*7 + i)})
		}
		evs, next := rec.EventsSince(cursor)
		cursor = next
		for _, ev := range evs {
			got = append(got, ev.Val)
		}
	}
	if len(got) != 35 {
		t.Fatalf("saw %d events, want 35", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("event %d out of order or duplicated: val %d", i, v)
		}
	}
	// Cursor at the end: nothing new.
	if evs, next := rec.EventsSince(cursor); len(evs) != 0 || next != cursor {
		t.Errorf("drained cursor returned %d events", len(evs))
	}
	// Cursor beyond the end (corrupt client): clamps, returns nothing.
	if evs, next := rec.EventsSince(cursor + 100); len(evs) != 0 || next != cursor {
		t.Errorf("future cursor returned %d events, cursor %d (want %d)", len(evs), next, cursor)
	}
}

// TestEventsSinceCatchesUpAfterWraparound is the SSE-stream edge case:
// a slow client whose cursor the ring has already overwritten must skip
// the lost events and resume at the oldest survivor, never blocking,
// duplicating, or fabricating entries.
func TestEventsSinceCatchesUpAfterWraparound(t *testing.T) {
	const capacity = 8
	rec := NewRecorder(capacity)
	rec.Emit(Event{Kind: KindExec, Val: 0})
	_, cursor := rec.EventsSince(0) // client read event 0, cursor = 1
	if cursor != 1 {
		t.Fatalf("cursor = %d, want 1", cursor)
	}
	// The ring wraps several times while the client sleeps.
	const total = 40
	for v := uint64(1); v < total; v++ {
		rec.Emit(Event{Kind: KindExec, Val: v})
	}
	evs, next := rec.EventsSince(cursor)
	if len(evs) != capacity {
		t.Fatalf("catch-up returned %d events, want the %d retained", len(evs), capacity)
	}
	for i, ev := range evs {
		want := uint64(total - capacity + i)
		if ev.Val != want || ev.Seq != want {
			t.Fatalf("catch-up event %d: val %d seq %d, want %d", i, ev.Val, ev.Seq, want)
		}
	}
	if next != total {
		t.Errorf("cursor after catch-up = %d, want %d", next, total)
	}
	// The stream is live again: the next event arrives without a gap.
	rec.Emit(Event{Kind: KindExec, Val: total})
	evs, next = rec.EventsSince(next)
	if len(evs) != 1 || evs[0].Val != total || next != total+1 {
		t.Errorf("post-catch-up read wrong: %d events, cursor %d", len(evs), next)
	}
}

func TestEventsSinceNilRecorder(t *testing.T) {
	var rec *Recorder
	if evs, next := rec.EventsSince(5); evs != nil || next != 5 {
		t.Error("nil recorder must return no events and an unchanged cursor")
	}
}

func TestMarshalJSONLMatchesWriteJSONL(t *testing.T) {
	ev := Event{Seq: 3, Kind: KindCovertProbe, Cycle: 99, PC: 0x40, Addr: 0x80, Val: 7, Level: 2}
	line, err := ev.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Event{ev}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(buf.String(), "\n"); got != string(line) {
		t.Errorf("MarshalJSONL %q != WriteJSONL line %q", line, got)
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("no_such_kind"); ok {
		t.Error("unknown name resolved")
	}
}
