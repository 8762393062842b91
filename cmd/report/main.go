// Command report runs the complete evaluation — every paper artefact and
// every extension experiment — and writes a single self-contained
// markdown report (artifact-evaluation style), with the configuration
// and per-section timings recorded alongside each result.
//
// Usage:
//
//	report -o results/REPORT.md -samples 400 -attempts 10
//	report -o out.md -sections fig4,table1 -workers 8
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/hid"
)

// sections are the report's sections in order: the -sections key, the
// heading, whether the section trains a detector (and so needs at least
// one sample per class), whether it plays attack attempts (and so needs
// at least one), and, for the two sections the campaign does not run,
// the run that renders the body. The others render the campaign section
// of the same key.
var sections = []struct {
	key, title      string
	trains, attacks bool
	render          func(cfg experiments.Config, w io.Writer) error
}{
	{"fig4", "Fig. 4 — HID accuracy vs feature size", true, false, nil},
	{"fig5", "Fig. 5 — offline-type HID: Spectre vs CR-Spectre", true, true, nil},
	{"fig6", "Fig. 6 — online-type HID: Spectre vs CR-Spectre", true, true, nil},
	{"table1", "Table I — IPC overhead", false, false, nil},
	{"defense", "Defense matrix (§I / §IV)", false, false, func(cfg experiments.Config, w io.Writer) error {
		rows, err := defense.Matrix(cfg.Seed)
		for _, r := range rows {
			result := "BLOCKED "
			if r.Outcome.Success {
				result = "SUCCEEDS"
			}
			fmt.Fprintf(w, "%-34s %s  %s\n", r.Name, result, r.Outcome.Detail)
		}
		return err
	}},
	{"latency", "Extension — online-HID detection latency", true, false, nil},
	{"recycle", "Extension — variant recycling vs windowed HID", true, false, nil},
	{"ensemble", "Extension — pointwise detectors vs committee on a diluted variant", true, false, func(cfg experiments.Config, w io.Writer) error {
		rows, err := experiments.EnsembleComparison(cfg)
		if err == nil {
			experiments.RenderEnsemble(w, rows)
		}
		return err
	}},
	{"alarms", "Extension — run-level alarm policies", true, false, nil},
}

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the tool against args, writing progress/summary lines to
// stdout and the report to the -o file. It is the testable core of main.
func run(args []string, stdout io.Writer) error {
	keys := make([]string, len(sections))
	for i, sec := range sections {
		keys[i] = sec.key
	}
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	cfg := experiments.DefaultConfig()
	out := fs.String("o", "results/REPORT.md", "output markdown file")
	fs.IntVar(&cfg.SamplesPerClass, "samples", cfg.SamplesPerClass, "training samples per class")
	fs.IntVar(&cfg.Attempts, "attempts", cfg.Attempts, "attack attempts per campaign")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "pipeline seed")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "parallel simulated machines (0 = all cores); results are identical for any value")
	selected := fs.String("sections", "", "comma-separated subset to run: "+strings.Join(keys, ",")+" (empty = all)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	enabled := map[string]bool{}
	for _, key := range strings.Split(*selected, ",") {
		if key = strings.TrimSpace(key); key == "" {
			continue
		}
		if !slices.Contains(keys, key) {
			return fmt.Errorf("%w: unknown section %q (valid: %s)", cli.ErrUsage, key, strings.Join(keys, ","))
		}
		enabled[key] = true
	}
	if cfg.SamplesPerClass < 0 {
		return fmt.Errorf("%w: -samples %d is negative", cli.ErrUsage, cfg.SamplesPerClass)
	}
	for _, sec := range sections {
		if len(enabled) > 0 && !enabled[sec.key] {
			continue
		}
		if cfg.SamplesPerClass == 0 && sec.trains {
			return fmt.Errorf("%w: -samples 0: section %s trains a detector, which needs at least 1 sample per class", cli.ErrUsage, sec.key)
		}
		if cfg.Attempts < 1 && sec.attacks {
			return fmt.Errorf("%w: -attempts %d: section %s plays at least 1 attack attempt", cli.ErrUsage, cfg.Attempts, sec.key)
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "# CR-Spectre reproduction report\n\n")
	fmt.Fprintf(&b, "Generated %s · seed %d · %d samples/class · %d attempts\n\n",
		time.Now().Format("2006-01-02 15:04"), cfg.Seed, cfg.SamplesPerClass, cfg.Attempts)
	fmt.Fprintf(&b, "Every number below is deterministic under the seed (independent of\n")
	fmt.Fprintf(&b, "-workers); rerun\n")
	fmt.Fprintf(&b, "`go run ./cmd/report -seed %d -samples %d -attempts %d` to reproduce it.\n\n",
		cfg.Seed, cfg.SamplesPerClass, cfg.Attempts)

	for _, sec := range sections {
		if len(enabled) > 0 && !enabled[sec.key] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "running: %s...\n", sec.title)
		var body bytes.Buffer
		var err error
		if sec.render != nil {
			err = sec.render(cfg, &body)
		} else {
			err = experiments.RenderSection(cfg, sec.key, &body)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sec.title, err)
		}
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n*(%.1fs)*\n\n", sec.title, body.String(), time.Since(start).Seconds())
	}

	fmt.Fprintf(&b, "## Thresholds\n\nEvasion ≤ %.0f%% accuracy; detection > %.0f%% (paper §II-E).\n",
		100*hid.EvadeThreshold, 100*hid.DetectThreshold)

	b.WriteString("\n## Simulator throughput\n\nHost-side benchmark numbers " +
		"(per execution tier: superblock and predecode single-step) are " +
		"tracked in [BENCH_simulator.json](../BENCH_simulator.json); the " +
		"optimisation is timing-model neutral, so every figure above is " +
		"unchanged by it.\n")

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*out, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, b.Len())
	return nil
}
