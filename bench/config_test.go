package main

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkConfig validates BENCHMARK.json against the limits the
// benchmark's runner enforces, and against the workloads and metrics
// this program implements.
func TestBenchmarkConfig(t *testing.T) {
	const file = "../BENCHMARK.json"
	info, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", info.Size())
	}
	cfg, err := readConfig(file) // rejects unknown keys
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(cfg.Command) == 0 || len(cfg.Command) > 32 {
		t.Errorf("command has %d strings, want 1-32", len(cfg.Command))
	}
	for _, a := range cfg.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command argument %q: over 200 characters or a path leaving the repository", a)
		}
		if strings.Contains(a, "/") && !strings.HasPrefix(a, "bench/") {
			t.Errorf("command argument %q names a file outside the benchmark's paths", a)
		}
	}
	if len(cfg.Paths) < 1 || len(cfg.Paths) > 16 {
		t.Errorf("paths has %d entries, want 1-16", len(cfg.Paths))
	}
	for _, p := range cfg.Paths {
		if !pathRE.MatchString(p) || path.IsAbs(p) || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if cfg.RunSeconds < 1 || cfg.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", cfg.RunSeconds)
	}

	if len(cfg.Workloads) < 2 || len(cfg.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(cfg.Workloads))
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program implements %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %q: why differs between BENCHMARK.json and the program", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1-200 characters", w.Name)
		}
	}

	// Per-section limits, and the program's definitions mirrored exactly.
	check := func(section string, got []configMetric, want []metricDef, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit {
			t.Errorf("%s has %d metrics, want 1-%d", section, len(got), limit)
		}
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the program reports %d", section, len(got), len(want))
		}
		for i, m := range got {
			name(section, m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q of %s is not [A-Za-z0-9_/%%.-]{1,16}", section, m.Unit, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better = %q", section, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound present = %v", section, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", section, m.Name, *m.Bound)
			}
			if i >= len(want) {
				continue
			}
			d := want[i]
			better := map[bool]string{true: "lower", false: "higher"}[d.lowerIsBetter]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					section, i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd, 16, true)
	check("per_layer", cfg.PerLayer, perLayer, 128, false)

	var setup *configMetric
	for i, m := range cfg.EndToEnd {
		if m.Name == "setup_s" {
			setup = &cfg.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range cfg.EndToEnd {
		if m.Bound != nil && setup.Bound != nil && *m.Bound > *setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v; setup_s must have the largest", m.Name, *m.Bound, *setup.Bound)
		}
	}

	// Every per-layer metric names the end-to-end metric and the
	// workloads it should move.
	e2e := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), reported...) {
		e2e[m.name] = true
	}
	for _, m := range perLayer {
		metric, wls, ok := strings.Cut(m.moves, "@")
		if !ok || !e2e[metric] || wls == "" {
			t.Errorf("%s: moves %q does not name an end-to-end metric and workloads", m.name, m.moves)
			continue
		}
		for _, w := range strings.Split(wls, ",") {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s: moves names unknown workload %q", m.name, w)
			}
		}
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			if d, ok := pinFor(w.name, seed); !ok || !hex.MatchString(d) {
				t.Errorf("%s seed %d: pin %q", w.name, seed, d)
			}
		}
	}
}
