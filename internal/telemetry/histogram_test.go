package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 31, 31}, {1<<31 + 1, 32}, {1 << 62, 32}, {^uint64(0), 32},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramSnapshotDeterministicAcrossOrder(t *testing.T) {
	// The same multiset of observations, in two different orders and
	// interleavings, must encode byte-identically.
	vals := make([]uint64, 500)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = uint64(rng.Intn(100_000))
	}
	build := func(order []uint64, workers int) []byte {
		h := NewHistogram("t", false)
		var wg sync.WaitGroup
		per := len(order) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []uint64) {
				defer wg.Done()
				for _, v := range chunk {
					h.Observe(v)
				}
			}(order[w*per : (w+1)*per])
		}
		wg.Wait()
		b, err := json.Marshal(h.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fwd := append([]uint64(nil), vals...)
	rev := make([]uint64, len(vals))
	for i, v := range vals {
		rev[len(vals)-1-i] = v
	}
	if a, b := build(fwd, 1), build(rev, 4); !bytes.Equal(a, b) {
		t.Errorf("snapshots differ across observation order/parallelism:\n%s\nvs\n%s", a, b)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram("m", false), NewHistogram("m", false)
	whole := NewHistogram("m", false)
	for v := uint64(0); v < 300; v += 7 {
		if v%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		whole.Observe(v)
	}
	a.Merge(b.Snapshot())
	if !reflect.DeepEqual(a.Snapshot(), whole.Snapshot()) {
		t.Errorf("merged snapshot differs from whole:\n%+v\nvs\n%+v", a.Snapshot(), whole.Snapshot())
	}
}

func TestHistogramObserveNSumExact(t *testing.T) {
	h := NewHistogram("n", false)
	h.ObserveN(5, 10)
	h.ObserveN(32, 3)
	s := h.Snapshot()
	if s.Count != 13 || s.Sum != 5*10+32*3 {
		t.Errorf("count=%d sum=%d, want 13/146", s.Count, s.Sum)
	}
	if got := s.Mean(); got < 11.2 || got > 11.3 {
		t.Errorf("mean = %g", got)
	}
}

func TestNilHistogramIsSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveN(2, 3)
	h.Merge(HistogramSnapshot{Count: 1})
	if h.Name() != "" || h.Volatile() || h.Snapshot().Count != 0 {
		t.Error("nil histogram not inert")
	}
}

func TestRegistryHistogramGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.Histogram("x", false)
	h2 := reg.Histogram("x", true) // flag fixed at creation: first wins
	if h1 != h2 {
		t.Fatal("Histogram did not return the existing instance")
	}
	if h1.Volatile() {
		t.Error("creation flag overridden by later call")
	}
	var nilReg *Registry
	if nilReg.Histogram("x", false) != nil {
		t.Error("nil registry must hand out nil histograms")
	}
	if nilReg.HistogramSnapshots(true) != nil {
		t.Error("nil registry snapshots not nil")
	}
}

func TestRegistryHistogramSnapshotsSortedAndFiltered(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("z.last", false).Observe(1)
	reg.Histogram("a.first", false).Observe(2)
	reg.Histogram("m.latency", true).Observe(3) // volatile: wall-clock
	all := reg.HistogramSnapshots(true)
	if len(all) != 3 || all[0].Name != "a.first" || all[2].Name != "z.last" {
		t.Fatalf("snapshots wrong or unsorted: %+v", all)
	}
	det := reg.HistogramSnapshots(false)
	if len(det) != 2 {
		t.Fatalf("volatile histogram leaked into deterministic view: %+v", det)
	}
	for _, s := range det {
		if s.Name == "m.latency" {
			t.Error("latency histogram in manifest view")
		}
	}
}

func TestManifestFinishRecordsKindsAndHistograms(t *testing.T) {
	reg := NewRegistry()
	reg.Inc("c.total")
	reg.Set("g.val", 2.5)
	reg.Histogram("blocks.size_instrs", false).ObserveN(8, 4)
	reg.Histogram("sched.pool.latency_ms", true).Observe(12)
	m := NewManifest("test", nil)
	m.Finish(time.Now(), reg, nil)
	if m.MetricKinds["c.total"] != "counter" || m.MetricKinds["g.val"] != "gauge" {
		t.Errorf("metric kinds wrong: %v", m.MetricKinds)
	}
	if len(m.Histograms) != 1 || m.Histograms[0].Name != "blocks.size_instrs" {
		t.Errorf("manifest histograms must hold exactly the deterministic set: %+v", m.Histograms)
	}
	if CPUTimeSupported() {
		if _, ok := m.Metrics["cpu_time_unsupported"]; ok {
			t.Error("cpu_time_unsupported gauge present on a supported platform")
		}
	} else if m.Metrics["cpu_time_unsupported"] != 1 {
		t.Error("cpu_time_unsupported gauge missing on a stub platform")
	}
}

func TestManifestProgressRoundTrip(t *testing.T) {
	m := NewManifest("test", nil)
	m.Progress = []ProgressPool{{Name: "soak", Submitted: 10, Done: 9, Failed: 1, Instrs: 12345}}
	b, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Progress, m.Progress) {
		t.Errorf("progress did not round-trip: %+v vs %+v", back.Progress, m.Progress)
	}
}
