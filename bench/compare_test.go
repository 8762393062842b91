package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(config, []byte(`{"command":["bash","bench/run.sh"],"paths":["bench"],"run_seconds":1,
		"workloads":[{"name":"table1","why":"w"},{"name":"scan","why":"w"}],
		"end_to_end":[{"name":"alloc_mb_per_op","unit":"MB","better":"lower","bound":0.1}],
		"per_layer":[{"name":"cpu.instret","unit":"count","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, i int, workload string, v float64) string {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"alloc_mb_per_op": {Value: v, Unit: "MB"}}}
		report := map[string]metricValue{"op_p50_ms": {Value: 2 * v, Unit: "ms"}}
		blob, err := json.Marshal(savedResult{Workload: workload, Seed: int64(i), Result: res, Report: report})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", side, workload, i))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var parent, change []string
	for i := 0; i < 10; i++ {
		jitter := float64(i%3) - 1
		parent = append(parent, write("parent", i, "table1", 100+jitter), write("parent", i, "scan", 50+jitter))
		change = append(change, write("change", i, "table1", 80+jitter), write("change", i, "scan", 60+jitter))
	}
	var out, errOut bytes.Buffer
	args := append(append(append([]string{"-config", config}, parent...), "--"), change...)
	if code := compareMain(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"alloc_mb_per_op (MB, lower is better, bound 10%)", "op_p50_ms (ms, lower is better, no bound)",
		"table1", "gain", "scan", "regression"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if code := compareMain([]string{"-config", config, parent[0]}, &out, &errOut); code != 2 {
		t.Errorf("missing -- separator: exit %d, want 2", code)
	}
}
