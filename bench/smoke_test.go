package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/progen"
	"repro/internal/sched"
)

// tinyOps is how many ops each loop runs in the smoke test: an untraced
// and a traced op of the same input for table1, fig6 and scan, the tiny
// difftest window (8 programs on 2 loops), and one tiny daemon cycle
// (both clients' campaign jobs, then an attack job each way).
var tinyOps = map[string]int{"table1": 2, "fig6": 2, "difftest": 4, "scan": 2, "daemon": 3}

// TestSmokeWorkloads runs every workload at tiny sizes the way a traced
// run does — probe first, then alternating untraced and traced ops —
// so each traced replica's output is checked against the untraced
// program's, and every per-layer metric comes out finite.
func TestSmokeWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			tr := newTracer()
			pctx, end := tr.op(ctx, 0)
			if err := inst.probe(pctx, tr); err != nil {
				t.Fatal(err)
			}
			end()
			cycle := 1
			if d, ok := inst.(*daemonInst); ok {
				cycle = d.cycle()
			}
			recs, _ := runLoops(ctx, inst, w.loops, tinyOps[w.name], cycle, 0, tr)
			for _, r := range recs {
				if r.err != nil {
					t.Errorf("op %d (traced %v): %v", r.id, r.traced, r.err)
				}
			}
			if _, err := inst.finish(); err != nil {
				t.Fatal(err)
			}
			m := layerMetrics(tr, recs)
			for _, d := range perLayer {
				if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v)", d.name, v, ok)
				}
			}
			if u := m["bench.unattributed_share"]; u > 0.10 {
				t.Errorf("bench.unattributed_share %.3f: the layer spans miss more than a tenth of the traced time", u)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace: %d events, %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestDifftestReplica checks the traced difftest op against
// cmd/difftest's shard on the same programs; the smoke test's ops never
// run one program both ways.
func TestDifftestReplica(t *testing.T) {
	for j := 0; j < 12; j++ {
		p := progen.Generate(sched.DeriveSeed(7, uint64(j)), progen.DefaultOptions())
		cfg := postureRing[j%len(postureRing)]
		want, err := runProgram(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runProgramTraced(context.Background(), newTracer(), p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("program %d: replica %+v, program %+v", j, got, want)
		}
	}
}
