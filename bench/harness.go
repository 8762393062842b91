package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance runs the ops.
const setupRepeats = 5

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // results and traces go here
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opRecord is one op's outcome.
type opRecord struct {
	id      int
	latency time.Duration
	traced  bool
	err     error
}

// opID numbers op k of loop `loop` for the trace (0 is the probe).
func opID(loop, k int) int { return loop<<24 | (k + 1) }

// runLoops drives `loops` closed loops over inst until the clock has run
// out, each loop has run minOps ops and stands at a multiple of cycle.
// In a traced run every other op of a loop runs traced, so the two can be
// compared in one process.
func runLoops(ctx context.Context, inst instance, loops, minOps, cycle int, seconds float64, tr *tracer) ([]opRecord, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		recs []opRecord
		wg   sync.WaitGroup
	)
	for loop := 0; loop < loops; loop++ {
		wg.Add(1)
		go func(loop int) {
			defer wg.Done()
			for k := 0; k < minOps || k%cycle != 0 || time.Now().Before(deadline); k++ {
				rec := opRecord{id: opID(loop, k)}
				var opTr *tracer
				octx, end := ctx, func() {}
				// With an even cycle, k%2 alone would trace the same
				// positions of every cycle (never the daemon's campaign
				// job), so the parity flips from cycle to cycle.
				flip := 0
				if cycle%2 == 0 {
					flip = k / cycle
				}
				if tr != nil && (k+flip)%2 == 1 {
					opTr, rec.traced = tr, true
					octx, end = tr.op(ctx, rec.id)
				}
				t0 := time.Now()
				rec.err = inst.op(octx, loop, k, opTr)
				rec.latency = time.Since(t0)
				end()
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(loop)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// run sets the workload up, measures it and prints the report and, last,
// the result line. It returns an error, and prints no result, only when
// the workload could not be set up.
func run(o options, stdout, stderr io.Writer) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ctx := context.Background()
	var (
		setups []float64
		inst   instance
	)
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(o.out, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(o.seed, false, dir); err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
		pctx, end := tr.op(ctx, 0)
		err := inst.probe(pctx, tr)
		end()
		if err != nil {
			return fmt.Errorf("%s: probe: %w", w.name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, wall := runLoops(ctx, inst, w.loops, w.minOps, w.cycle, o.seconds, tr)
	runtime.ReadMemStats(&after)

	res := result{Correct: true, Attempted: len(recs), Metrics: map[string]metricValue{}}
	var lat []float64
	for _, r := range recs {
		lat = append(lat, r.latency.Seconds()*1e3)
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "FAIL %s seed %d op %d: %v\n", w.name, o.seed, r.id, r.err)
		}
	}
	lines, err := inst.finish()
	if err != nil {
		fmt.Fprintf(stderr, "FAIL %s seed %d: %v\n", w.name, o.seed, err)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %s: %d ops on %d closed loop(s) in %.2fs, %d failed, GOMAXPROCS %d\n",
		w.name, o.seed, mode, len(recs), w.loops, wall.Seconds(), res.Failed, runtime.GOMAXPROCS(0))
	if p, v, ok := tailPercentile(lat); ok && p > 50 {
		fmt.Fprintf(stdout, "  op latency: p50 %.3f ms, p%g %.3f ms (n=%d)\n", median(lat), p, v, len(lat))
	} else {
		fmt.Fprintf(stdout, "  op latency: p50 %.3f ms (n=%d; too few ops for a tail percentile)\n", median(lat), len(lat))
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "  %s\n", l)
	}

	// Every run also measures the reported, unbounded end-to-end metrics;
	// they are printed and saved with the result, not put on its line.
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	n := float64(len(recs))
	report := map[string]metricValue{
		"op_p50_ms":   {Value: median(lat)},
		"ops_per_s":   {Value: n / wall.Seconds()},
		"peak_rss_mb": {Value: float64(ru.Maxrss) / 1024}, // Maxrss is in KiB on Linux
	}
	printMetrics(stdout, "reported, unbounded:", reported, report)

	defs := endToEnd
	if o.trace {
		defs = perLayer
		for name, v := range layerMetrics(tr, recs) {
			res.Metrics[name] = metricValue{Value: v}
		}
		if err := os.MkdirAll(o.out, 0o755); err == nil {
			path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
			if err := tr.writeChrome(path); err != nil {
				fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  trace: %s\n", path)
			}
		}
		printMetrics(stdout, "per-layer:", defs, res.Metrics)
	} else {
		res.Metrics["setup_s"] = metricValue{Value: median(setups)}
		res.Metrics["alloc_mb_per_op"] = metricValue{Value: float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n}
		printMetrics(stdout, "end-to-end:", defs, res.Metrics)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	saveResult(o, res, report, stderr)
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// printMetrics prints defs' values from m, setting each value's unit.
func printMetrics(w io.Writer, title string, defs []metricDef, m map[string]metricValue) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		v := m[d.name]
		v.Unit = d.unit
		m[d.name] = v
		fmt.Fprintf(w, "    %-34s %14.6g %s\n", d.name, v.Value, d.unit)
	}
}

// savedResult is the record a run leaves under <out>/results for the
// compare command: the result line plus the reported metrics.
type savedResult struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Seconds  float64                `json:"seconds"`
	Result   result                 `json:"result"`
	Report   map[string]metricValue `json:"report,omitempty"`
}

func saveResult(o options, res result, report map[string]metricValue, stderr io.Writer) {
	dir := filepath.Join(o.out, "results")
	blob, err := json.Marshal(savedResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Result: res, Report: report})
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano())
		err = os.WriteFile(filepath.Join(dir, name), blob, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: saving result: %v\n", err)
	}
}

// layerMetrics derives every per-layer metric from the traced ops'
// spans and counters.
func layerMetrics(tr *tracer, recs []opRecord) map[string]float64 {
	traced := map[int]bool{}
	var tLat, uLat []float64
	for _, r := range recs {
		if r.traced {
			traced[r.id] = true
			tLat = append(tLat, r.latency.Seconds())
		} else {
			uLat = append(uLat, r.latency.Seconds())
		}
	}
	self, total := tr.layerSelf(traced)
	tr.mu.Lock()
	c := make(map[string]float64, len(tr.counts))
	for k, v := range tr.counts {
		c[k] = v
	}
	tr.mu.Unlock()

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perOp := func(name string) float64 { return ratio(c[name], c["bench.ops"]) }
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(total)) }

	m := map[string]float64{}
	for _, layer := range selfShareLayers() {
		m[layer+".self_share"] = share(self[layer])
	}
	m["cpu.instret"] = perOp("cpu.instret")
	m["cpu.sim_minstr_per_s"] = ratio(c["pmu.instret"], self["pmu"].Seconds()) / 1e6
	m["cpu.block_hit_ratio"] = ratio(c["cpu.block_hits"], c["cpu.block_hits"]+c["cpu.block_compiled"])
	m["cpu.block_compiled"] = perOp("cpu.block_compiled")
	m["cpu.block_invalidations"] = perOp("cpu.block_invalidations")
	m["cpu.sim_ipc"] = ratio(c["cpu.instret"], c["cpu.cycles"])
	m["cpu.squashes"] = perOp("cpu.squashes")
	m["cache.l1_miss_ratio"] = ratio(c["cache.l1_misses"], c["cache.l1_accesses"])
	m["cache.l2_miss_ratio"] = ratio(c["cache.l2_misses"], c["cache.l2_accesses"])
	m["branch.cond_mispredict_ratio"] = ratio(c["branch.cond_mispredicts"], c["branch.cond"])
	m["vm.machines"] = perOp("vm.machines")
	m["pmu.samples"] = perOp("pmu.samples")
	m["pmu.sample_overhead_ratio"] = ratio(c["pmu.probe_sampled_ns"], c["pmu.probe_bare_ns"])
	m["ml.fits"] = perOp("ml.fits")
	m["ml.fit_rows"] = perOp("ml.fit_rows")
	m["ml.fit_krows_per_s"] = ratio(c["ml.fit_rows"], c["ml.fit_ns"]/1e9) / 1e3
	m["oracle.steps"] = perOp("oracle.steps")
	m["analysis.roots"] = perOp("analysis.roots")
	m["analysis.findings"] = perOp("analysis.findings")
	m["analysis.confirmed"] = perOp("analysis.confirmed")
	m["analysis.taint_share"] = share(tr.nameSelf(traced, "analysis.taint"))
	m["analysis.confirm_share"] = share(tr.nameSelf(traced, "analysis.confirm"))
	m["sched.busy_share"] = tr.busyShare()
	m["controlapi.queued_share"] = share(tr.nameSelf(traced, "controlapi.queued"))
	m["controlapi.artifact_kb_per_job"] = perOp("controlapi.artifact_bytes") / 1024
	m["controlapi.overhead_ratio"] = ratio(ratio(c["controlapi.attack_job_ns"], c["controlapi.attack_jobs"]),
		ratio(c["controlapi.direct_ns"], c["controlapi.direct_runs"]))
	m["telemetry.recorder_overhead_ratio"] = ratio(c["telemetry.recorded_ns"], c["telemetry.bare_ns"])
	m["bench.unattributed_share"] = share(self[""])
	if len(tLat) > 0 && len(uLat) > 0 {
		m["bench.trace_overhead_share"] = median(tLat)/median(uLat) - 1
	}
	return m
}
