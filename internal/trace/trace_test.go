package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pmu"
)

func sampleSet() *Set {
	s := NewSet(pmu.AllEvents()[:3])
	s.Add("appA", LabelBenign, []pmu.Sample{{1, 2, 3}, {4, 5, 6}})
	s.Add("attack", LabelAttack, []pmu.Sample{{7, 8, 9}})
	return s
}

func TestAddAndLabels(t *testing.T) {
	s := sampleSet()
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Data.Y[0] != LabelBenign || s.Data.Y[2] != LabelAttack {
		t.Error("labels wrong")
	}
	if s.Apps[2] != "attack" {
		t.Error("app provenance wrong")
	}
}

func TestAddCopiesSamples(t *testing.T) {
	s := NewSet(pmu.AllEvents()[:1])
	smp := pmu.Sample{42}
	s.Add("a", 0, []pmu.Sample{smp})
	smp[0] = 99
	if s.Data.X[0][0] != 42 {
		t.Error("Add aliased the caller's sample")
	}
}

func TestAddNoisyJitters(t *testing.T) {
	s := NewSet(pmu.AllEvents()[:1])
	samples := make([]pmu.Sample, 200)
	for i := range samples {
		samples[i] = pmu.Sample{100}
	}
	s.AddNoisy("a", 0, samples, 0.05, 7)
	var mean, sd float64
	for _, row := range s.Data.X {
		mean += row[0]
	}
	mean /= float64(s.Len())
	for _, row := range s.Data.X {
		sd += (row[0] - mean) * (row[0] - mean)
	}
	sd = math.Sqrt(sd / float64(s.Len()))
	if math.Abs(mean-100) > 2 {
		t.Errorf("noisy mean %v far from 100", mean)
	}
	if sd < 2 || sd > 10 {
		t.Errorf("noisy sd %v out of band for sigma=0.05", sd)
	}
	// Determinism under the seed.
	s2 := NewSet(pmu.AllEvents()[:1])
	s2.AddNoisy("a", 0, samples, 0.05, 7)
	for i := range s.Data.X {
		if s.Data.X[i][0] != s2.Data.X[i][0] {
			t.Fatal("AddNoisy not deterministic under seed")
		}
	}
}

func TestMerge(t *testing.T) {
	a := sampleSet()
	b := sampleSet()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 6 {
		t.Errorf("merged len = %d", a.Len())
	}
	mismatch := NewSet(pmu.AllEvents()[:2])
	if err := a.Merge(mismatch); err == nil {
		t.Error("merged mismatched event widths")
	}
}

func TestProject(t *testing.T) {
	s := sampleSet()
	p := s.Project(2)
	if len(p.Events) != 2 || p.Data.Dim() != 2 {
		t.Fatalf("projection shape wrong: %d events, dim %d", len(p.Events), p.Data.Dim())
	}
	if p.Data.X[0][0] != 1 || p.Data.X[0][1] != 2 {
		t.Error("projection values wrong")
	}
	// Mutating the projection must not touch the source.
	p.Data.X[0][0] = 99
	if s.Data.X[0][0] != 1 {
		t.Error("projection aliases source")
	}
	// Oversized projection clamps.
	if q := s.Project(50); len(q.Events) != 3 {
		t.Error("oversized projection not clamped")
	}
}

// TestAddNoisyReuse checks AddNoisy's reuse rules. Jittered rows drawn
// from a seed equal what a new generator on that seed gives, also after
// the pooled generators served other seeds; and a set truncated to
// length zero refills to exactly a new set's rows, writing into each
// spare row wide enough to hold one whatever it held.
func TestAddNoisyReuse(t *testing.T) {
	samples := []pmu.Sample{{100, 200, 300}, {1, 2, 3}, {5, 6, 7}, {8, 9, 10}}
	rng := rand.New(rand.NewSource(7))
	var want [][]float64
	for _, smp := range samples {
		row := make([]float64, len(smp))
		for j, v := range smp {
			row[j] = v * (1 + 0.05*rng.NormFloat64())
		}
		want = append(want, row)
	}

	for seed := int64(0); seed < 4; seed++ {
		NewSet(pmu.AllEvents()[:3]).AddNoisy("other", LabelBenign, samples, 0.3, seed)
	}
	fresh := NewSet(pmu.AllEvents()[:3])
	fresh.AddNoisy("a", LabelAttack, samples, 0.05, 7)
	if !reflect.DeepEqual(fresh.Data.X, want) {
		t.Fatalf("seed 7 after the pool served other seeds:\n%v\nwant\n%v", fresh.Data.X, want)
	}

	// Spare rows narrower and wider than a sample, holding stale values.
	reused := NewSet(pmu.AllEvents()[:3])
	reused.AddNoisy("stale", LabelBenign, []pmu.Sample{{1}, {1, 2, 3, 4, 5, 6}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}}, 0.5, 99)
	spare := reused.Data.X
	reused.Apps, reused.Data.X, reused.Data.Y = reused.Apps[:0], reused.Data.X[:0], reused.Data.Y[:0]
	reused.AddNoisy("a", LabelAttack, samples, 0.05, 7)
	if !reflect.DeepEqual(reused.Apps, fresh.Apps) || !reflect.DeepEqual(reused.Data, fresh.Data) {
		t.Fatalf("refilled set differs from a new one:\n%v %v\nwant\n%v %v", reused.Apps, reused.Data, fresh.Apps, fresh.Data)
	}
	for i, row := range reused.Data.X {
		if roomy := cap(spare[i]) >= len(samples[i]); (&row[0] == &spare[i][0]) != roomy {
			t.Errorf("row %d: reused = %v, want %v (spare row cap %d)", i, !roomy, roomy, cap(spare[i]))
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := sampleSet()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip len %d != %d", got.Len(), s.Len())
	}
	for i := range s.Data.X {
		if got.Apps[i] != s.Apps[i] || got.Data.Y[i] != s.Data.Y[i] {
			t.Fatalf("row %d metadata mismatch", i)
		}
		for j := range s.Data.X[i] {
			if got.Data.X[i][j] != s.Data.X[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got.Data.X[i][j], s.Data.X[i][j])
			}
		}
	}
	for i, e := range s.Events {
		if got.Events[i] != e {
			t.Error("events not preserved")
		}
	}
}

// TestCSVRoundTripNoisy covers the full-width catalogue with
// noise-model samples: AddNoisy's multiplicative jitter produces
// irrational-looking float64s, and the 'g'/-1 serialisation must bring
// every bit back.
func TestCSVRoundTripNoisy(t *testing.T) {
	s := NewSet(pmu.AllEvents())
	samples := make([]pmu.Sample, 5)
	for i := range samples {
		smp := make(pmu.Sample, int(pmu.NumEvents))
		for j := range smp {
			smp[j] = float64(i*len(smp) + j + 1)
		}
		samples[i] = smp
	}
	s.AddNoisy("noisy-app", LabelBenign, samples, 0.08, 42)
	s.AddNoisy("noisy-atk", LabelAttack, samples, 0.08, 43)

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || len(got.Events) != len(s.Events) {
		t.Fatalf("round trip shape %dx%d != %dx%d", got.Len(), len(got.Events), s.Len(), len(s.Events))
	}
	for i := range s.Data.X {
		if got.Apps[i] != s.Apps[i] || got.Data.Y[i] != s.Data.Y[i] {
			t.Fatalf("row %d metadata mismatch", i)
		}
		for j := range s.Data.X[i] {
			if got.Data.X[i][j] != s.Data.X[i][j] {
				t.Fatalf("row %d col %d (%s): %v != %v — noise fields must survive bit-exact",
					i, j, s.Events[j], got.Data.X[i][j], s.Data.X[i][j])
			}
		}
	}
}

func TestReadCSVRejectsJunk(t *testing.T) {
	cases := map[string]string{
		"bad header":    "x,y,z\n",
		"unknown event": "app,label,bogus_event\n",
		"bad label":     "app,label,total_cycles\na,x,1\n",
		"bad value":     "app,label,total_cycles\na,0,zz\n",
		"empty":         "",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := NewSet(pmu.AllEvents()[:2])
	s.Add("a", LabelBenign, []pmu.Sample{{10, 0}, {20, 0}, {30, 0}})
	s.Add("atk", LabelAttack, []pmu.Sample{{100, 0}})
	rows, err := s.Summarize(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	a := rows[0]
	if a.App != "a" || a.Count != 3 || a.Mean != 20 || a.Min != 10 || a.Max != 30 {
		t.Errorf("stats = %+v", a)
	}
	if math.Abs(a.Std-math.Sqrt(200.0/3)) > 1e-9 {
		t.Errorf("std = %v", a.Std)
	}
	if rows[1].Label != LabelAttack {
		t.Error("attack label lost")
	}
	var buf bytes.Buffer
	if err := s.RenderSummary(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "total_cache_misses") {
		t.Error("render missing event name")
	}
	if _, err := s.Summarize(9); err == nil {
		t.Error("out-of-range feature accepted")
	}
	empty := NewSet(pmu.AllEvents()[:1])
	if _, err := empty.Summarize(0); err == nil {
		t.Error("empty set accepted")
	}
}
