package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain implements
//
//	bench compare [-config BENCHMARK.json] <parent results…> -- <change results…>
//
// over result files the runs saved under <out>/results. Files pair up
// per workload in the order given, so pass the parent's and the change's
// runs in the order they alternated. For each metric it prints one row
// per workload with each side's median and quartiles, the pair tally and
// the verdict of compareRuns; bounded end-to-end metrics are judged
// against their bound in the config, while the reported end-to-end
// metrics and the per-layer ones have none and can only show a gain.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: bench compare [-config BENCHMARK.json] <parent results…> -- <change results…>")
		return 2
	}
	cfg, err := readConfig(*configPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	parent, err := loadResults(rest[:sep])
	if err == nil {
		var change map[string][]savedResult
		if change, err = loadResults(rest[sep+1:]); err == nil {
			writeComparison(stdout, cfg, parent, change)
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 1
}

// loadResults reads saved results and groups them by workload, in the
// order given.
func loadResults(paths []string) (map[string][]savedResult, error) {
	out := map[string][]savedResult{}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s savedResult
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[s.Workload] = append(out[s.Workload], s)
	}
	return out, nil
}

func writeComparison(w io.Writer, cfg *benchConfig, parent, change map[string][]savedResult) {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	metrics := append([]configMetric(nil), cfg.EndToEnd...)
	for _, d := range reported {
		metrics = append(metrics, configMetric{Name: d.name, Unit: d.unit, Better: map[bool]string{true: "lower", false: "higher"}[d.lowerIsBetter]})
	}
	metrics = append(metrics, cfg.PerLayer...)
	for _, m := range metrics {
		bound := math.Inf(1)
		boundText := "no bound"
		if m.Bound != nil {
			bound = *m.Bound
			boundText = fmt.Sprintf("bound %.0f%%", 100*bound)
		}
		header := false
		for _, name := range names {
			p, c := values(parent[name], m.Name), values(change[name], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%s (%s, %s is better, %s)\n", m.Name, m.Unit, m.Better, boundText)
				fmt.Fprintf(w, "  %-10s %-34s %-34s %-12s %8s  %s\n", "workload", "parent median [q1, q3]", "change median [q1, q3]", "pairs w/l/t", "worse", "verdict")
				header = true
			}
			r := compareRuns(p, c, m.Better == "lower", bound)
			fmt.Fprintf(w, "  %-10s %-34s %-34s %-12s %+7.1f%%  %s\n", name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", r.parentMed, r.parentQ1, r.parentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", r.changeMed, r.changeQ1, r.changeQ3),
				fmt.Sprintf("%d %d/%d/%d", r.pairs, r.wins, r.losses, r.ties),
				100*r.worse, r.verdict)
		}
	}
}

func values(rs []savedResult, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Report[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
