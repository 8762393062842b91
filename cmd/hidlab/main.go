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
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/pmu"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the tool against args, writing results to stdout. It is
// the testable core of main.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hidlab", flag.ContinueOnError)
	cfg := experiments.DefaultConfig()
	fs.IntVar(&cfg.FeatureSize, "features", cfg.FeatureSize, "number of monitored HPC features")
	fs.IntVar(&cfg.SamplesPerClass, "samples", cfg.SamplesPerClass, "training samples per class (paper: 2000)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "pipeline seed")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "parallel simulated machines (0 = all cores); results are identical for any value")
	// Each -classifiers name is checked as the command line is parsed, so
	// an unknown one is a usage error before any corpus is built.
	fs.Func("classifiers", "comma-separated `list` of classifier families (default "+strings.Join(cfg.Classifiers, ",")+")", func(s string) error {
		names := strings.Split(s, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, ok := ml.ByName(names[i], 0); !ok {
				return fmt.Errorf("unknown classifier %q (want %s)", names[i], strings.Join(ml.ClassifierNames(), ", "))
			}
		}
		cfg.Classifiers = names
		return nil
	})
	var (
		export  = fs.String("export", "", "write the labelled corpus to this CSV file")
		cv      = fs.Int("cv", 0, "also run k-fold cross-validation with this k")
		events  = fs.Bool("events", false, "list the 56-event PMU catalogue and exit")
		profile = fs.Int("profile", -1, "print per-app distribution stats for this feature index")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *events {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "#\tevent\tdescription")
		for i, e := range pmu.AllEvents() {
			fmt.Fprintf(tw, "%d\t%s\t%s\n", i+1, e, e.Describe())
		}
		return tw.Flush()
	}

	fmt.Fprintf(stdout, "profiling benign corpus (%d workloads)...\n", len(mibench.AllWithBackgrounds()))
	fmt.Fprintf(stdout, "profiling attack corpus (4 spectre variants)...\n")
	corp, err := cfg.Corpora()
	if err != nil {
		return err
	}
	full := corp.Train(cfg.FeatureSize)
	fmt.Fprintf(stdout, "corpus: %d benign + %d attack samples, %d features\n",
		corp.Benign.Len(), corp.Attack.Len(), cfg.FeatureSize)

	// The full 56-event corpus of both classes, for -profile and -export.
	wide := corp.Benign
	if err := wide.Merge(corp.Attack); err != nil {
		return err
	}
	if *profile >= 0 {
		return wide.RenderSummary(stdout, *profile)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := wide.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "full 56-event corpus written to %s\n", *export)
	}

	train, test := full.Split(0.7, cfg.Seed)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "classifier\taccuracy\tprecision\trecall\tf1\tauc\tverdict\tcv")
	for _, name := range cfg.Classifiers {
		clf, _ := ml.ByName(name, cfg.Seed)
		det := hid.New(clf)
		if err := det.Train(train); err != nil {
			return err
		}
		acc := det.Accuracy(test)
		c := det.Confusion(test)
		auc := det.AUC(test)
		cvCol := "-"
		if *cv >= 2 {
			res, err := ml.CrossValidate(func() ml.Classifier {
				clf, _ := ml.ByName(name, cfg.Seed)
				return clf
			}, full, *cv, cfg.Seed)
			if err != nil {
				return err
			}
			cvCol = res.String()
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.3f\t%.3f\t%.3f\t%.3f\t%s\t%s\n",
			name, 100*acc, c.Precision(), c.Recall(), c.F1(), auc, hid.Judge(acc), cvCol)
	}
	return tw.Flush()
}
