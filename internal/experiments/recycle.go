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
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RecycleRow is one phase of the variant-recycling experiment.
type RecycleRow struct {
	Phase    string
	Accuracy float64
	Verdict  hid.Verdict
}

// VariantRecycling is an extension experiment probing a realistic HID
// deployment constraint: bounded training memory. A sliding-window
// online detector learns variant A, the attacker switches to variant B
// long enough for A's traces to age out of the window, then *recycles*
// A — which evades again. The unbounded online HID of Fig. 6 does not
// forget; a memory-bounded one re-opens every door it ever closed.
func VariantRecycling(cfg Config, window int) ([]RecycleRow, error) {
	if window <= 0 {
		window = 600
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

	clf, ok := ml.ByName("mlp", cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("recycle: mlp unavailable")
	}
	det := hid.NewWindowed(clf, window)
	// Shuffle before seeding: the window keeps the most recent traces,
	// and the merged corpus is ordered benign-then-attack — trimming an
	// unshuffled corpus would skew the class balance.
	train.Shuffle(cfg.Seed + 99)
	if err := det.Train(train); err != nil {
		return nil, err
	}

	// Variant A is heavily dispersed (benign-looking density); the decoy
	// phase B is a plain, undiluted CR run (raw-Spectre signature). The
	// two sit far apart in feature space, so evicting A's traces leaves
	// the detector with nothing that generalises to A.
	rng := rand.New(rand.NewSource(cfg.Seed + 4242))
	variantA := perturb.Paper().Mutate(rng)
	variantA.Delay = 150

	// runEval runs one CR attack on a pooled machine, puts it back and
	// returns the run's evaluation mix.
	runEval := func(v *perturb.Params, pd int64, seed int64) (ml.Dataset, error) {
		m := vm.Get()
		cr, err := cfg.crRun(m, host, AttackSpec{
			Variant: spectre.V1BoundsCheck, Perturb: v, ProbeDelay: pd,
		}, seed)
		vm.Put(m)
		if err != nil {
			return ml.Dataset{}, err
		}
		return cfg.attackEval("cr", cr.Samples, seed, benignEval, seed+3).Data, nil
	}

	var rows []RecycleRow
	record := func(phase string, acc float64) {
		rows = append(rows, RecycleRow{Phase: phase, Accuracy: acc, Verdict: hid.Judge(acc)})
	}

	// Phase 1: fresh variant A evades, the detector observes + retrains
	// until it is caught.
	const dilutionA = 500
	seed := cfg.Seed * 13
	evalA, err := runEval(&variantA, dilutionA, seed)
	if err != nil {
		return nil, err
	}
	record("A first strike", det.Accuracy(evalA))
	for round := 0; round < 4; round++ {
		if err := det.Observe(evalA); err != nil {
			return nil, err
		}
		seed++
		if evalA, err = runEval(&variantA, dilutionA, seed); err != nil {
			return nil, err
		}
		acc := det.Accuracy(evalA)
		record(fmt.Sprintf("A after retrain %d", round+1), acc)
		if acc > hid.DetectThreshold {
			break
		}
	}

	// Phase 2: the attacker switches to the plain decoy; the defender
	// keeps observing the stream (benign + decoy), aging A's traces out
	// of the bounded window. The decoy simulations don't depend on
	// detector state, so they fan out across the pool; observation then
	// replays them in round order.
	const decoyRounds = 6
	decoyBase := seed
	decoys, err := sched.Map(cfg.ctx("recycle-decoys"), cfg.workers(), decoyRounds,
		func(_ context.Context, r int) (ml.Dataset, error) {
			return runEval(nil, 0, decoyBase+1+int64(r))
		})
	if err != nil {
		return nil, err
	}
	for round := 0; round < decoyRounds; round++ {
		seed++
		if err := det.Observe(decoys[round]); err != nil {
			return nil, err
		}
		// Ambient benign traffic also flows through the window.
		amb := sampleRows(benignEval, 60, seed+5000)
		if err := det.Observe(amb); err != nil {
			return nil, err
		}
	}
	// The last decoy batch, rescored after all observations, is what
	// the analyst sees once the decoy is established (same seed — and
	// therefore identical data — as the sequential implementation's
	// re-run).
	record("decoy established", det.Accuracy(decoys[decoyRounds-1]))

	// Phase 3: recycle variant A after its traces aged out.
	seed++
	evalA2, err := runEval(&variantA, dilutionA, seed)
	if err != nil {
		return nil, err
	}
	record("A recycled", det.Accuracy(evalA2))
	return rows, nil
}

// sampleRows draws n random rows from a set as a dataset.
func sampleRows(set *trace.Set, n int, seed int64) ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var out ml.Dataset
	for k := 0; k < n && set.Len() > 0; k++ {
		i := rng.Intn(set.Len())
		out.X = append(out.X, set.Data.X[i])
		out.Y = append(out.Y, set.Data.Y[i])
	}
	return out
}

// RenderRecycling prints the phase table.
func RenderRecycling(w io.Writer, rows []RecycleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\taccuracy\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f%%\t%s\n", r.Phase, 100*r.Accuracy, r.Verdict)
	}
	tw.Flush()
}

// EnsembleRow compares one detector's accuracy on an evading CR-Spectre
// stream against the committee of all four families, at a given feature
// size.
type EnsembleRow struct {
	Detector    string
	FeatureSize int
	Accuracy    float64
}

// EnsembleComparison is a defender-side extension asking two questions
// about an evading (diluted) CR-Spectre variant: does a majority-vote
// committee of all four classifier families help, and does widening the
// monitored feature set help? The answer is asymmetric — the mimicry
// lives in the paper's 4-feature space (every model and the committee
// fail identically), while 16 features expose the perturbation's
// clflush/fence fingerprint that no benign application carries.
func EnsembleComparison(cfg Config) ([]EnsembleRow, error) {
	corp, err := cfg.Corpora()
	if err != nil {
		return nil, err
	}
	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}
	variant := perturb.Paper()
	variant.Delay = 120
	m := vm.Get()
	cr, err := cfg.crRun(m, host, AttackSpec{
		Variant: spectre.V1BoundsCheck, Perturb: &variant, ProbeDelay: 350,
	}, cfg.Seed*7+3)
	vm.Put(m)
	if err != nil {
		return nil, err
	}

	var rows []EnsembleRow
	for _, size := range []int{cfg.FeatureSize, 16} {
		train := corp.Train(size)
		eval := cfg.attackEval("cr", cr.Samples, cfg.Seed+91, corp.Benign.Project(size), cfg.Seed+92)
		var members []ml.Classifier
		for i, name := range ml.ClassifierNames() {
			clf, _ := ml.ByName(name, cfg.Seed+int64(i))
			det := hid.New(clf)
			if err := det.Train(train); err != nil {
				return nil, err
			}
			rows = append(rows, EnsembleRow{Detector: name, FeatureSize: size, Accuracy: det.Accuracy(eval.Data)})
			clf2, _ := ml.ByName(name, cfg.Seed+int64(i))
			members = append(members, clf2)
		}
		committee := hid.NewEnsemble(members...)
		if err := committee.Train(train); err != nil {
			return nil, err
		}
		rows = append(rows, EnsembleRow{Detector: "ensemble", FeatureSize: size, Accuracy: committee.Accuracy(eval.Data)})
	}
	return rows, nil
}

// RenderEnsemble prints the comparison.
func RenderEnsemble(w io.Writer, rows []EnsembleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "detector\tfeatures\taccuracy\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%s\n", r.Detector, r.FeatureSize, 100*r.Accuracy, hid.Judge(r.Accuracy))
	}
	tw.Flush()
}
