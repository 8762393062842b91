// Command bench is the repository's benchmark. It runs named workloads
// against the simulator, its analyzers and its job daemon from outside
// the program, checks every output, and prints end-to-end metrics or —
// in a separate traced run — per-layer metrics. BENCHMARK.json at the
// repository root defines the workloads and metrics; README.md in this
// directory explains them.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                     # every workload, each in its own process
//	bash bench/run.sh compare <parent results…> -- <change results…>
//
// The last line of a single-workload run is its result as one JSON
// object. Results and traces are written under -out.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all (each in its own child process)")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = fs.Float64("seconds", 15, "how long the ops run; loops still finish their minimum and their cycle")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
		out     = fs.String("out", "bench/out", "directory for results, traces and daemon artifacts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	if err := run(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after
// another, and summarises their result lines.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	results := map[string]result{}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"-out", o.out)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		var r result
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "bench: %s: result line: %v\n", w.name, err)
			status = 1
			continue
		}
		if !r.Correct {
			status = 1
		}
		results[w.name] = r
		fmt.Fprintln(stdout)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "summary, seed %d:\n%-34s", o.seed, "metric")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %12s", w.name)
	}
	fmt.Fprintln(stdout)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s", d.name+" ("+d.unit+")")
		for _, w := range workloads {
			if r, ok := results[w.name]; ok {
				fmt.Fprintf(stdout, " %12.5g", r.Metrics[d.name].Value)
			} else {
				fmt.Fprintf(stdout, " %12s", "-")
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-34s", "correct (failed/attempted)")
	for _, w := range workloads {
		r := results[w.name]
		fmt.Fprintf(stdout, " %12s", fmt.Sprintf("%t %d/%d", r.Correct, r.Failed, r.Attempted))
	}
	fmt.Fprintln(stdout)
	return status
}

// benchConfig is BENCHMARK.json.
type benchConfig struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []configWorkload `json:"workloads"`
	EndToEnd   []configMetric   `json:"end_to_end"`
	PerLayer   []configMetric   `json:"per_layer"`
}

type configWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type configMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readConfig(path string) (*benchConfig, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var c benchConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, errors.New(path + ": trailing data")
	}
	return &c, nil
}
