package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestRunEvents: -events lists the PMU catalogue, a header and one line
// per event, and exits without building a corpus.
func TestRunEvents(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-events"}, &out); err != nil {
		t.Fatalf("run -events: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 57 {
		t.Errorf("-events printed %d lines, want 57 (a header and 56 events):\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "#") || !strings.HasPrefix(lines[1], "1 ") {
		t.Errorf("-events table starts %q, %q", lines[0], lines[1])
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if out.Len() != 0 {
		t.Errorf("flag errors wrote to stdout:\n%s", out.String())
	}
}

// TestRunUnknownClassifier: -classifiers rejects a name ml.ByName does
// not know as the command line is parsed, before any corpus is
// profiled, and trims the names it accepts.
func TestRunUnknownClassifier(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-classifiers", "mlp,bogus"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-classifiers mlp,bogus = %v, want cli.ErrUsage (exit 2)", err)
	}
	if out.Len() != 0 {
		t.Errorf("an unknown classifier still ran the pipeline:\n%s", out.String())
	}
	if err := run([]string{"-classifiers", " lr , svm", "-events"}, &out); err != nil {
		t.Errorf("-classifiers with spaced names: %v", err)
	}
}

// TestRunFeaturesRange: -features outside 1 to pmu.NumEvents is a usage
// error raised before any corpus is profiled. Projecting the corpus
// onto such a count would panic below zero, fail to train at zero and
// clamp silently above the catalogue.
func TestRunFeaturesRange(t *testing.T) {
	for _, n := range []string{"-1", "0", "57"} {
		var out strings.Builder
		if err := run([]string{"-features", n, "-samples", "20"}, &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("-features %s = %v, want cli.ErrUsage (exit 2)", n, err)
		}
		if out.Len() != 0 {
			t.Errorf("-features %s still ran the pipeline:\n%s", n, out.String())
		}
	}
	for _, n := range []string{"1", "56"} {
		if err := run([]string{"-features", n, "-events"}, io.Discard); err != nil {
			t.Errorf("-features %s -events: %v", n, err)
		}
	}
}

// TestRunSamplesAndProfileRange: -samples below 1 and -profile outside
// -1 (off) to pmu.NumEvents-1 are usage errors raised before any corpus
// is profiled; profiling first would end in an empty training set or an
// out-of-range feature.
func TestRunSamplesAndProfileRange(t *testing.T) {
	for _, args := range [][]string{
		{"-samples", "0"},
		{"-samples", "-3"},
		{"-samples", "20", "-profile", "56"},
		{"-samples", "20", "-profile", "-2"},
	} {
		var out strings.Builder
		if err := run(args, &out); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%q = %v, want cli.ErrUsage (exit 2)", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q still ran the pipeline:\n%s", args, out.String())
		}
	}
	for _, n := range []string{"-1", "0", "55"} {
		if err := run([]string{"-profile", n, "-events"}, io.Discard); err != nil {
			t.Errorf("-profile %s -events: %v", n, err)
		}
	}
}
