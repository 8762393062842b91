package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 9}, 2.75, 10.25}, // extrapolates, as Python does
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n     int
		ok    bool
		pct   float64
		value float64
	}{
		{n: 19, ok: false},
		{n: 20, ok: true, pct: 50, value: 10},
		{n: 39, ok: true, pct: 50, value: 20},
		{n: 40, ok: true, pct: 75, value: 30},
		{n: 100, ok: true, pct: 90, value: 90},
		{n: 1000, ok: true, pct: 99, value: 990},
		{n: 10000, ok: true, pct: 99.9, value: 9990},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(series(c.n))
		if ok != c.ok || pct != c.pct || v != c.value {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, pct, v, ok, c.pct, c.value, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range series(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, pct)
			}
		}
	}
}

func TestCompareRuns(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	t.Run("gain", func(t *testing.T) {
		c := compareRuns(steady, scale(steady, 0.8), true, 0.1)
		if c.verdict != verdictGain || c.wins != 10 {
			t.Errorf("got %+v", c)
		}
	})
	t.Run("higher is better", func(t *testing.T) {
		c := compareRuns(steady, scale(steady, 1.2), false, 0.1)
		if c.verdict != verdictGain || c.worse >= 0 {
			t.Errorf("got %+v", c)
		}
	})
	t.Run("ties count for neither side", func(t *testing.T) {
		change := scale(steady, 0.8)
		change[0], change[1] = steady[0], steady[1] // two ties: 8 of 10 wins
		c := compareRuns(steady, change, true, 0.1)
		if c.ties != 2 || c.wins != 8 || c.losses != 0 {
			t.Fatalf("tally %d/%d/%d, want 8/0/2", c.wins, c.losses, c.ties)
		}
		if c.verdict == verdictGain {
			t.Errorf("8 wins of 10 pairs claimed a gain")
		}
	})
	t.Run("identical runs", func(t *testing.T) {
		c := compareRuns(steady, steady, true, 0.1)
		if c.verdict != verdictSame || c.ties != 10 {
			t.Errorf("got %+v", c)
		}
	})
	t.Run("regression", func(t *testing.T) {
		c := compareRuns(steady, scale(steady, 1.3), true, 0.1)
		if c.verdict != verdictRegression {
			t.Errorf("got %+v", c)
		}
	})
	t.Run("median gap within the parent's spread", func(t *testing.T) {
		parent := []float64{80, 90, 100, 110, 120, 80, 90, 100, 110, 120}
		change := []float64{79, 89, 99, 109, 119, 79, 89, 99, 109, 119} // wins every pair by 1
		c := compareRuns(parent, change, true, 0.5)
		if c.wins != 10 || c.verdict == verdictGain {
			t.Errorf("a 1%% shift inside a 20%% spread claimed a gain: %+v", c)
		}
	})
	t.Run("unresolved", func(t *testing.T) {
		parent := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
		change := scale(parent, 1.05)
		c := compareRuns(parent, change, true, 0.1)
		if c.verdict != verdictUnresolved {
			t.Errorf("got %v, want unresolved", c.verdict)
		}
	})
	t.Run("noisy but every change run better", func(t *testing.T) {
		parent := []float64{200, 300, 250, 220, 280}
		change := []float64{100, 150, 120, 110, 190}
		c := compareRuns(parent, change, true, 0.1)
		if c.verdict != verdictGain {
			t.Errorf("got %v, want gain", c.verdict)
		}
	})
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", id: 1, start: 0, end: 100 * ms},
		{name: "sched.map", id: 2, parent: 1, start: 10 * ms, end: 90 * ms},
		{name: "vm.new", id: 3, parent: 2, start: 10 * ms, end: 50 * ms},     // worker 1
		{name: "pmu.sample", id: 4, parent: 2, start: 20 * ms, end: 80 * ms}, // worker 2, overlaps 3
		{name: "cpu.new", id: 5, parent: 4, start: 30 * ms, end: 40 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20 * ms, 2: 10 * ms, 3: 40 * ms, 4: 50 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	if got := layerOf("stage.train"); got != "" {
		t.Errorf("layerOf(stage.train) = %q", got)
	}
	if got := layerOf("vm.new"); got != "vm" {
		t.Errorf("layerOf(vm.new) = %q", got)
	}
}
