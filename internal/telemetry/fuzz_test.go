package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJSONL pins the event-log decoder's contract: ReadJSONL never
// panics, and any log it accepts reads back as the same events after
// WriteJSONL, so offline tooling can re-export what it loaded losslessly.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"seq":1,"kind":"retire","cycle":5,"pc":65536,"val":3}` + "\n" +
		`{"seq":2,"kind":"cache_fill","cycle":9,"addr":4096,"val":200,"level":3}` + "\n"))
	f.Add([]byte(`{"kind":"spec_enter"}{"kind":"spec_squash","seq":18446744073709551615}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kind":"no_such_kind"}`))
	f.Add([]byte(`{"kind":"retire","level":256}`))
	f.Add([]byte(`{"kind":"retire","seq":-1}`))
	f.Add([]byte(`{"kind":"retire","cycle":1e3}`))
	f.Add([]byte(strings.Repeat(`[`, 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("re-encode accepted events: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v (wire %q)", err, buf.Bytes())
		}
		if !reflect.DeepEqual(events, back) {
			t.Errorf("round trip changed the events:\n%+v\n%+v", events, back)
		}
	})
}

// FuzzReadManifest pins the manifest decoder's contract: ReadManifest
// never panics, and any manifest it accepts reads back equal after
// MarshalIndent, so a tool that loads, annotates and rewrites a manifest
// loses nothing.
func FuzzReadManifest(f *testing.F) {
	m := NewManifest("fuzz", []string{"-seed", "7"})
	m.Config = map[string]any{"samples": 30.0, "blocks": true, "hosts": []any{"sha_1", "math"}}
	m.Seed, m.Workers, m.WallSec = 7, 4, 1.25
	m.Metrics = map[string]float64{"cpu.instret": 1e6, "cache.l1_miss_ratio": 0.03125}
	m.MetricKinds = map[string]string{"cpu.instret": "counter", "cache.l1_miss_ratio": "gauge"}
	m.Histograms = []HistogramSnapshot{{Name: "cpu.block_size", Count: 3, Sum: 12,
		Buckets: []HistogramBucket{{Le: 4, N: 2}, {Le: 8, N: 1}}}}
	m.Progress = []ProgressPool{{Name: "difftest", Submitted: 8, Done: 8, Instrs: 1200}}
	m.Events = map[string]uint64{"retire": 1200}
	full, err := m.MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"schema":"crspectre/manifest/v1","tool":"x","args":[],"config":{},"histograms":[{"name":"h","buckets":[]}]}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"seed":1.5}`))
	f.Add([]byte(`{"wall_seconds":1e400}`))
	f.Add([]byte("{\"tool\":\"\xff\"}"))
	f.Add([]byte(`{"config":{"a":{"b":[null,1,"c",{}]}}}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := m.WriteFile(out); err != nil {
			t.Fatalf("re-encode accepted manifest: %v", err)
		}
		back, err := ReadManifest(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		dropEmpty(m)
		if !reflect.DeepEqual(m, back) {
			t.Errorf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}

// dropEmpty sets the manifest's empty but non-nil collections to nil:
// an input may spell them ("args": [], "config": {}), and MarshalIndent
// omits them under omitempty, so nil is what reads back.
func dropEmpty(m *Manifest) {
	if len(m.Args) == 0 {
		m.Args = nil
	}
	if len(m.Config) == 0 {
		m.Config = nil
	}
	if len(m.Metrics) == 0 {
		m.Metrics = nil
	}
	if len(m.MetricKinds) == 0 {
		m.MetricKinds = nil
	}
	if len(m.Histograms) == 0 {
		m.Histograms = nil
	}
	for i := range m.Histograms {
		if len(m.Histograms[i].Buckets) == 0 {
			m.Histograms[i].Buckets = nil
		}
	}
	if len(m.Progress) == 0 {
		m.Progress = nil
	}
	if len(m.Events) == 0 {
		m.Events = nil
	}
}

// FuzzChromeTraceMatchesReference pins WriteChromeTrace to the
// encoding/json reference builder byte for byte, over arbitrary event
// sequences: every kind and kinds out of range, squashes with no open
// episode, any cache level, and any field value. The seeds alone cover
// each of those and a long mixed ring.
func FuzzChromeTraceMatchesReference(f *testing.F) {
	f.Add(encodeFuzzEvents(mixedEvents(64)))
	f.Add(encodeFuzzEvents(mixedEvents(3000)))
	f.Add(encodeFuzzEvents([]Event{
		{Kind: KindSpecSquash, Val: math.MaxUint64},
		{Kind: KindSpecEnter, PC: math.MaxUint64, Val: math.MaxUint64},
		{Kind: KindCacheFill, Level: 3, Cycle: math.MaxUint64, Addr: math.MaxUint64, Val: math.MaxUint64},
		{Kind: KindCacheFill, Level: math.MaxUint8},
		{Kind: KindSpecSquash},
		{Kind: KindSpecSquash},
		{Kind: KindTaskStart, Seq: math.MaxUint64, Addr: math.MaxUint64},
		{Kind: NumKinds, Val: 1},
		{Kind: math.MaxUint8},
	}))
	f.Add([]byte{})
	f.Add([]byte{byte(KindExec)})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeFuzzEvents(data)
		var got, want bytes.Buffer
		if err := WriteChromeTrace(&got, events); err != nil {
			t.Fatal(err)
		}
		if err := referenceChromeTrace(&want, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WriteChromeTrace differs from the reference over %+v:\n got %s\nwant %s",
				events, got.Bytes(), want.Bytes())
		}
	})
}

// decodeFuzzEvents reads events from fuzz input: per event a kind byte
// and a level byte, then Seq, Cycle, PC, Addr and Val, each a length
// byte (mod 9) followed by that many little-endian bytes. A field past
// the end of the input is zero.
func decodeFuzzEvents(data []byte) []Event {
	field := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		n := min(int(data[0]%9), len(data)-1)
		var v uint64
		for i, b := range data[1 : 1+n] {
			v |= uint64(b) << (8 * i)
		}
		data = data[1+n:]
		return v
	}
	var events []Event
	for len(data) >= 2 {
		ev := Event{Kind: Kind(data[0]), Level: data[1]}
		data = data[2:]
		ev.Seq, ev.Cycle, ev.PC, ev.Addr, ev.Val = field(), field(), field(), field(), field()
		events = append(events, ev)
	}
	return events
}

// encodeFuzzEvents is decodeFuzzEvents' inverse, for seeding the corpus.
func encodeFuzzEvents(events []Event) []byte {
	var out []byte
	for _, ev := range events {
		out = append(out, byte(ev.Kind), ev.Level)
		for _, v := range [...]uint64{ev.Seq, ev.Cycle, ev.PC, ev.Addr, ev.Val} {
			out = append(out, 8)
			for i := 0; i < 8; i++ {
				out = append(out, byte(v>>(8*i)))
			}
		}
	}
	return out
}
