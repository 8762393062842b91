package main

// metricDef declares one reported metric. BENCHMARK.json repeats the
// name, unit and direction (config_test.go holds the two together) and
// adds the regression bound of each end-to-end metric.
type metricDef struct {
	name, unit    string
	lowerIsBetter bool
	// moves names, for a per-layer metric, the end-to-end metric and the
	// workloads it should move ("metric@workload,workload"), written down
	// before measuring so a change can be checked against it.
	moves string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and bounded in BENCHMARK.json. Every workload reports each
// of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerIsBetter: true},
	{name: "alloc_mb_per_op", unit: "MB", lowerIsBetter: true},
}

// reported are end-to-end metrics too noisy on a shared host to carry a
// regression bound (README.md, "Run-to-run spread"): each run prints
// them and saves them in its result file, where the compare command
// judges interleaved parent/change pairs by them.
var reported = []metricDef{
	{name: "op_p50_ms", unit: "ms", lowerIsBetter: true},
	{name: "ops_per_s", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MiB", lowerIsBetter: true},
}

// perLayer are the metrics of single layers, measured in the traced run
// only. Every workload reports each of them; a layer a workload does not
// reach reads 0 there, which is the prediction for that workload.
var perLayer = []metricDef{
	// Self time of each layer as a share of all traced self time.
	{name: "isa.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6"},
	{name: "vm.self_share", unit: "share", lowerIsBetter: true, moves: "alloc_mb_per_op@table1,fig6"},
	{name: "spectre.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6"},
	{name: "gadget.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6"},
	{name: "rop.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6"},
	{name: "pmu.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1"},
	{name: "trace.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@fig6"},
	{name: "ml.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@fig6"},
	{name: "hid.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@fig6"},
	{name: "sched.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6,scan"},
	{name: "progen.self_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "mem.self_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "cpu.self_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "oracle.self_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "analysis.self_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@scan"},
	{name: "client.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@daemon"},
	{name: "controlapi.self_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@daemon"},

	// Simulator work and speed. Counts are per op and repeat exactly for
	// a seed; the simulated ratios are guards a simulator-only speed-up
	// must leave unchanged.
	{name: "cpu.instret", unit: "count", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6,difftest"},
	{name: "cpu.sim_minstr_per_s", unit: "Minstr/s", moves: "op_p50_ms@table1,fig6"},
	{name: "cpu.block_hit_ratio", unit: "share", moves: "op_p50_ms@table1,fig6"},
	{name: "cpu.block_compiled", unit: "count", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "cpu.block_invalidations", unit: "count", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "cpu.sim_ipc", unit: "instr/cycle", moves: "op_p50_ms@table1"},
	{name: "cpu.squashes", unit: "count", lowerIsBetter: true, moves: "op_p50_ms@table1"},
	{name: "cache.l1_miss_ratio", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1"},
	{name: "cache.l2_miss_ratio", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1"},
	{name: "branch.cond_mispredict_ratio", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1"},
	{name: "vm.machines", unit: "count", lowerIsBetter: true, moves: "alloc_mb_per_op@table1,fig6"},
	{name: "pmu.samples", unit: "count", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6"},
	{name: "pmu.sample_overhead_ratio", unit: "ratio", lowerIsBetter: true, moves: "op_p50_ms@table1"},

	// Detector training.
	{name: "ml.fits", unit: "count", lowerIsBetter: true, moves: "op_p50_ms@fig6"},
	{name: "ml.fit_rows", unit: "count", lowerIsBetter: true, moves: "op_p50_ms@fig6"},
	{name: "ml.fit_krows_per_s", unit: "krows/s", moves: "op_p50_ms@fig6"},

	// Differential testing and the analyzer.
	{name: "oracle.steps", unit: "count", lowerIsBetter: true, moves: "ops_per_s@difftest"},
	{name: "analysis.roots", unit: "count", lowerIsBetter: true, moves: "ops_per_s@scan"},
	{name: "analysis.findings", unit: "count", lowerIsBetter: true, moves: "ops_per_s@scan"},
	{name: "analysis.confirmed", unit: "count", moves: "ops_per_s@scan"},
	{name: "analysis.taint_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@scan"},
	{name: "analysis.confirm_share", unit: "share", lowerIsBetter: true, moves: "ops_per_s@scan"},

	// The engine's worker pool.
	{name: "sched.busy_share", unit: "share", moves: "op_p50_ms@table1,fig6,scan"},

	// The daemon, seen from its clients.
	{name: "controlapi.queued_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@daemon"},
	{name: "controlapi.artifact_kb_per_job", unit: "KiB", lowerIsBetter: true, moves: "ops_per_s@daemon"},
	{name: "controlapi.overhead_ratio", unit: "ratio", lowerIsBetter: true, moves: "op_p50_ms@daemon"},
	{name: "telemetry.recorder_overhead_ratio", unit: "ratio", lowerIsBetter: true, moves: "op_p50_ms@daemon"},

	// Coverage of the trace itself.
	{name: "bench.unattributed_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6,difftest,scan,daemon"},
	{name: "bench.trace_overhead_share", unit: "share", lowerIsBetter: true, moves: "op_p50_ms@table1,fig6,difftest,scan,daemon"},
}

// selfShareLayers lists the layers that get a self_share metric.
func selfShareLayers() []string {
	var out []string
	for _, m := range perLayer {
		if n := len(m.name) - len(".self_share"); n > 0 && m.name[n:] == ".self_share" {
			out = append(out, m.name[:n])
		}
	}
	return out
}
