package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// LatencyRow reports how quickly one online detector adapted to a fresh
// perturbation variant it had never seen.
type LatencyRow struct {
	Classifier string
	Variant    string
	// BatchesToDetect is the number of observe/retrain rounds before
	// accuracy exceeded the 80% detection threshold (-1 = never within
	// the budget). Round 1 is the first encounter.
	BatchesToDetect int
	// Trajectory is the accuracy after each round.
	Trajectory []float64
}

// DetectionLatency is an extension experiment beyond the paper's plots:
// it quantifies the online HID's reaction time — the window during which
// a freshly mutated CR-Spectre variant exfiltrates undetected before
// retraining catches it. That window is exactly what the paper's
// attacker exploits by mutating again once caught.
func DetectionLatency(cfg Config, maxBatches int) ([]LatencyRow, error) {
	if maxBatches <= 0 {
		maxBatches = 6
	}
	corp, err := cfg.Corpora()
	if err != nil {
		return nil, err
	}
	train := corp.Train(cfg.FeatureSize)
	benignEval := corp.Benign.Project(cfg.FeatureSize)
	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}

	// Each classifier's adaptation race is self-contained (own detector,
	// own variant, own seed stream), so the classifiers fan out across
	// the pool; within one classifier the observe/retrain rounds remain
	// inherently sequential, on one pooled machine reset by every run.
	return mapMachines(cfg, "latency", len(cfg.Classifiers),
		func(_ context.Context, m *vm.Machine, i int) (LatencyRow, error) {
			name := cfg.Classifiers[i]
			clf, ok := ml.ByName(name, cfg.Seed+int64(i))
			if !ok {
				return LatencyRow{}, fmt.Errorf("latency: unknown classifier %q", name)
			}
			det := hid.NewOnline(clf)
			if err := det.Train(train); err != nil {
				return LatencyRow{}, err
			}
			// A fresh variant the detector has never observed, with heavy
			// dispersion so it starts in evading territory.
			rng := rand.New(rand.NewSource(cfg.Seed + 7000 + int64(i)))
			variant := perturb.Paper().Mutate(rng)
			variant.Delay = 100 + rng.Int63n(100)
			pd := int64(200 + rng.Int63n(200))

			row := LatencyRow{Classifier: name, Variant: variant.String(), BatchesToDetect: -1}
			buf := getSamples()
			defer putSamples(buf)
			for batch := 1; batch <= maxBatches; batch++ {
				cr, err := cfg.crRun(m, host, AttackSpec{
					Variant:    spectre.Variants()[(batch-1)%len(spectre.Variants())],
					Perturb:    &variant,
					ProbeDelay: pd,
				}, cfg.Seed*31+int64(batch)+int64(i)*977, buf)
				if err != nil {
					return LatencyRow{}, err
				}
				eval := cfg.attackEval("cr", cr.Samples, cfg.Seed+int64(batch), benignEval, cfg.Seed+int64(batch)*13)
				acc := det.Accuracy(eval.Data)
				row.Trajectory = append(row.Trajectory, acc)
				if acc > hid.DetectThreshold && row.BatchesToDetect < 0 {
					row.BatchesToDetect = batch
					break
				}
				if err := det.Observe(eval.Data); err != nil {
					return LatencyRow{}, err
				}
			}
			return row, nil
		})
}

// RenderLatency prints the detection-latency table.
func RenderLatency(w io.Writer, rows []LatencyRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "classifier\tbatches to detect\taccuracy trajectory")
	for _, r := range rows {
		det := "never"
		if r.BatchesToDetect > 0 {
			det = fmt.Sprintf("%d", r.BatchesToDetect)
		}
		traj := ""
		for i, a := range r.Trajectory {
			if i > 0 {
				traj += " -> "
			}
			traj += fmt.Sprintf("%.0f%%", 100*a)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Classifier, det, traj)
	}
	tw.Flush()
}
