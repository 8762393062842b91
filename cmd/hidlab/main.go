// Command hidlab builds HPC trace corpora on the simulated platform,
// trains the HID classifier families, and reports their detection
// quality — the defender's side of the paper's pipeline. It can also
// export the corpora as CSV for external analysis.
//
// Usage:
//
//	hidlab [-features 4] [-samples 400] [-classifiers mlp,nn,lr,svm]
//	       [-export traces.csv] [-seed N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/pmu"
)

func main() {
	var (
		features    = flag.Int("features", 4, "number of monitored HPC features")
		samples     = flag.Int("samples", 400, "training samples per class (paper: 2000)")
		classifiers = flag.String("classifiers", "mlp,nn,lr,svm", "comma-separated classifier families")
		export      = flag.String("export", "", "write the labelled corpus to this CSV file")
		seed        = flag.Int64("seed", 1, "pipeline seed")
		workers     = flag.Int("workers", 0, "parallel simulated machines (0 = all cores); results are identical for any value")
		cv          = flag.Int("cv", 0, "also run k-fold cross-validation with this k")
		events      = flag.Bool("events", false, "list the 56-event PMU catalogue and exit")
		profile     = flag.Int("profile", -1, "print per-app distribution stats for this feature index")
	)
	flag.Parse()

	if *events {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "#\tevent\tdescription")
		for i, e := range pmu.AllEvents() {
			fmt.Fprintf(tw, "%d\t%s\t%s\n", i+1, e, e.Describe())
		}
		tw.Flush()
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.FeatureSize = *features
	cfg.SamplesPerClass = *samples
	cfg.Seed = *seed
	cfg.Workers = *workers

	fmt.Printf("profiling benign corpus (%d workloads)...\n", len(mibench.AllWithBackgrounds()))
	fmt.Printf("profiling attack corpus (4 spectre variants)...\n")
	corp, err := cfg.Corpora()
	if err != nil {
		fatal(err)
	}
	full := corp.Train(cfg.FeatureSize)
	fmt.Printf("corpus: %d benign + %d attack samples, %d features\n",
		corp.Benign.Len(), corp.Attack.Len(), cfg.FeatureSize)

	// The full 56-event corpus of both classes, for -profile and -export.
	wide := corp.Benign
	if err := wide.Merge(corp.Attack); err != nil {
		fatal(err)
	}
	if *profile >= 0 {
		if err := wide.RenderSummary(os.Stdout, *profile); err != nil {
			fatal(err)
		}
		return
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		if err := wide.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("full 56-event corpus written to %s\n", *export)
	}

	train, test := full.Split(0.7, cfg.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "classifier\taccuracy\tprecision\trecall\tf1\tauc\tverdict\tcv")
	for _, name := range strings.Split(*classifiers, ",") {
		name = strings.TrimSpace(name)
		clf, ok := ml.ByName(name, cfg.Seed)
		if !ok {
			fatal(fmt.Errorf("unknown classifier %q", name))
		}
		det := hid.New(clf)
		if err := det.Train(train); err != nil {
			fatal(err)
		}
		acc := det.Accuracy(test)
		c := det.Confusion(test)
		auc := det.AUC(test)
		cvCol := "-"
		if *cv >= 2 {
			name := name
			res, err := ml.CrossValidate(func() ml.Classifier {
				clf, _ := ml.ByName(name, cfg.Seed)
				return clf
			}, full, *cv, cfg.Seed)
			if err != nil {
				fatal(err)
			}
			cvCol = res.String()
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\t%s\t%s\n",
			name, 100*acc, c.Precision(), c.Recall(), c.F1(), auc, hid.Judge(acc), cvCol)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidlab:", err)
	os.Exit(1)
}
