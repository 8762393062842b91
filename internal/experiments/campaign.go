package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// CampaignSpec selects which sections of the paper's evaluation one run
// regenerates. It is the shared job payload behind cmd/experiments'
// flags and the crspectred daemon's campaign job kinds: both resolve to
// a CampaignSpec and call RunCampaign, so a job that ran on the daemon
// executed exactly the code path the CLI would have — same drivers,
// same section order, same CSV bytes, same manifest content.
type CampaignSpec struct {
	Fig4    bool // Fig. 4: HID accuracy vs feature size
	Fig5    bool // Fig. 5: offline-type HID campaign
	Fig6    bool // Fig. 6: online-type HID campaign
	Latency bool // extension: online-HID detection latency
	Recycle bool // extension: variant recycling vs windowed HID
	Alarms  bool // extension: run-level alarm policies
	Table1  bool // Table I: IPC overhead
}

// Any reports whether at least one section is selected.
func (s CampaignSpec) Any() bool {
	for _, sec := range campaignSections {
		if sec.on(s) {
			return true
		}
	}
	return false
}

// Trains reports whether a selected section trains a detector, which
// needs at least one sample per class: every section but Table I.
func (s CampaignSpec) Trains() bool {
	s.Table1 = false
	return s.Any()
}

// Attacks reports whether a selected section plays a campaign of attack
// attempts, which needs at least one: Fig. 5 and Fig. 6.
func (s CampaignSpec) Attacks() bool { return s.Fig5 || s.Fig6 }

// campaignSections are RunCampaign's sections in canonical order, each
// under the key RenderSection knows it by. Each run renders its
// driver's tables to w and returns the writer of its CSV (nil when csv
// is "").
var campaignSections = []struct {
	key   string
	title string
	on    func(CampaignSpec) bool
	csv   string
	run   func(cfg Config, w io.Writer) (func(io.Writer), error)
}{
	{"fig4", "Fig 4: HID accuracy vs feature size", func(s CampaignSpec) bool { return s.Fig4 }, "fig4.csv",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			rows, err := Fig4(cfg)
			if err != nil {
				return nil, err
			}
			RenderFig4(w, rows)
			return func(f io.Writer) { Fig4CSV(f, rows) }, nil
		}},
	{"fig5", "Fig 5: offline-type HID campaign", func(s CampaignSpec) bool { return s.Fig5 }, "fig5.csv",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			res, err := Fig5(cfg)
			if err != nil {
				return nil, err
			}
			RenderCampaign(w, res, cfg.Classifiers)
			return func(f io.Writer) { CampaignCSV(f, res) }, nil
		}},
	{"fig6", "Fig 6: online-type HID campaign", func(s CampaignSpec) bool { return s.Fig6 }, "fig6.csv",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			res, err := Fig6(cfg)
			if err != nil {
				return nil, err
			}
			RenderCampaign(w, res, cfg.Classifiers)
			return func(f io.Writer) { CampaignCSV(f, res) }, nil
		}},
	{"latency", "Extension: online-HID detection latency", func(s CampaignSpec) bool { return s.Latency }, "",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			rows, err := DetectionLatency(cfg, 6)
			if err != nil {
				return nil, err
			}
			RenderLatency(w, rows)
			return nil, nil
		}},
	{"recycle", "Extension: variant recycling vs windowed HID", func(s CampaignSpec) bool { return s.Recycle }, "",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			rows, err := VariantRecycling(cfg, 600)
			if err != nil {
				return nil, err
			}
			RenderRecycling(w, rows)
			return nil, nil
		}},
	{"alarms", "Extension: run-level alarm policies vs diluted CR-Spectre", func(s CampaignSpec) bool { return s.Alarms }, "",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			rows, err := RunLevelDetection(cfg, nil, 6)
			if err != nil {
				return nil, err
			}
			RenderAlarms(w, rows)
			return nil, nil
		}},
	{"table1", "Table I: IPC overhead", func(s CampaignSpec) bool { return s.Table1 }, "table1.csv",
		func(cfg Config, w io.Writer) (func(io.Writer), error) {
			rows, err := Table1(cfg)
			if err != nil {
				return nil, err
			}
			RenderTable1(w, rows)
			return func(f io.Writer) { Table1CSV(f, rows) }, nil
		}},
}

// RunCampaign executes the selected sections in the canonical order
// (Fig. 4, Fig. 5, Fig. 6, the three extensions, Table I), rendering
// text tables to stdout and, when csvdir is non-empty, writing the CSV
// series into it. Cancellation arrives through cfg.BaseCtx: the worker
// pools inside every driver stop dispatching once it is cancelled, and
// the context's error is returned.
func RunCampaign(cfg Config, spec CampaignSpec, stdout io.Writer, csvdir string) error {
	for _, sec := range campaignSections {
		if !sec.on(spec) {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stdout, "=== %s ===\n", sec.title)
		emit, err := sec.run(cfg, stdout)
		if err == nil && sec.csv != "" && csvdir != "" {
			err = writeCSV(stdout, filepath.Join(csvdir, sec.csv), emit)
		}
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", sec.title, err)
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", sec.title, time.Since(start).Seconds())
	}
	return nil
}

// RenderSection runs the campaign section known by key (fig4, fig5,
// fig6, latency, recycle, alarms or table1) and renders its tables to
// w, without writing its CSV.
func RenderSection(cfg Config, key string, w io.Writer) error {
	for _, sec := range campaignSections {
		if sec.key == key {
			_, err := sec.run(cfg, w)
			return err
		}
	}
	return fmt.Errorf("experiments: no campaign section %q", key)
}

// writeCSV writes one section's CSV to path, creating its directory,
// and reports the path on stdout. The emitters return no write errors,
// so they write through a buffer whose Flush reports the first one.
func writeCSV(stdout io.Writer, path string, emit func(io.Writer)) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	w := bufio.NewWriter(f)
	emit(w)
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
