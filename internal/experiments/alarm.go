package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/spectre"
	"repro/internal/trace"
	"repro/internal/vm"
)

// AlarmPolicy raises a run-level alarm when at least K of any W
// consecutive samples classify as attack. K=1, W=1 is the naive
// "any sample" rule; W=0 counts over the whole run.
type AlarmPolicy struct {
	K, W int
}

// String names the policy.
func (p AlarmPolicy) String() string {
	if p.K <= 1 && p.W <= 1 {
		return "any-sample"
	}
	if p.W <= 0 {
		return fmt.Sprintf("%d-per-run", p.K)
	}
	return fmt.Sprintf("%d-of-%d", p.K, p.W)
}

// Fires evaluates the policy over a prediction sequence.
func (p AlarmPolicy) Fires(pred []int) bool {
	k := p.K
	if k < 1 {
		k = 1
	}
	if p.W <= 0 {
		total := 0
		for _, v := range pred {
			total += v
		}
		return total >= k
	}
	w := p.W
	if w < k {
		w = k
	}
	count := 0
	for i, v := range pred {
		count += v
		if i >= w {
			count -= pred[i-w]
		}
		if count >= k {
			return true
		}
	}
	return false
}

// AlarmRow reports one policy's run-level quality.
type AlarmRow struct {
	Policy       string
	BenignAlarms int // false alarms over the benign runs
	BenignRuns   int
	CRDetected   int // diluted CR-Spectre runs caught
	CRRuns       int
}

// RunLevelDetection is the defender-side answer to interval-level
// evasion: pointwise accuracy on a diluted CR-Spectre stream collapses
// (most intervals genuinely mimic benign ones), but the perturbation's
// rare clflush-burst intervals still classify as attack — so an alarm
// that triggers on clustered suspicious samples catches the *run*
// without flooding the analyst with benign false alarms. Evaluated at
// 16 monitored features where the flush fingerprint is visible.
func RunLevelDetection(cfg Config, policies []AlarmPolicy, crRuns int) ([]AlarmRow, error) {
	if len(policies) == 0 {
		policies = []AlarmPolicy{{1, 1}, {2, 8}, {3, 0}, {6, 0}}
	}
	if crRuns <= 0 {
		crRuns = 6
	}
	const features = 16

	corp, err := cfg.Corpora()
	if err != nil {
		return nil, err
	}
	clf, _ := ml.ByName("mlp", cfg.Seed)
	det := hid.New(clf)
	if err := det.Train(corp.Train(features)); err != nil {
		return nil, err
	}

	classify := func(samples []pmu.Sample, seed int64) []int {
		set := trace.NewSet(pmu.AllEvents())
		set.AddNoisy("run", trace.LabelAttack, samples, cfg.NoiseSigma, seed)
		proj := set.Project(features)
		pred := make([]int, proj.Len())
		for i, row := range proj.Data.X {
			pred[i] = det.Predict(row)
		}
		return pred
	}

	// Per-run prediction sequences: one run per benign workload, crRuns
	// diluted CR campaigns. Each run resets its pooled machine and the
	// detector is frozen (Predict is read-only), so both run sets fan
	// out across the pool.
	benignRuns := mibench.AllWithBackgrounds()
	benignSeqs, err := mapMachines(cfg, "alarm-benign", len(benignRuns),
		func(_ context.Context, m *vm.Machine, i int) ([]int, error) {
			samples, err := cfg.benignRun(m, benignRuns[i], cfg.Seed*53+int64(i))
			if err != nil {
				return nil, err
			}
			return classify(samples, cfg.Seed+int64(i)), nil
		})
	if err != nil {
		return nil, err
	}
	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}
	variant := perturb.Paper()
	variant.Delay = 120
	crSeqs, err := mapMachines(cfg, "alarm-crspectre", crRuns,
		func(_ context.Context, m *vm.Machine, r int) ([]int, error) {
			cr, err := cfg.crRun(m, host, AttackSpec{
				Variant: spectre.V1BoundsCheck, Perturb: &variant, ProbeDelay: 350,
			}, cfg.Seed*71+int64(r))
			if err != nil {
				return nil, err
			}
			return classify(cr.Samples, cfg.Seed+100+int64(r)), nil
		})
	if err != nil {
		return nil, err
	}

	var rows []AlarmRow
	for _, p := range policies {
		row := AlarmRow{Policy: p.String(), BenignRuns: len(benignSeqs), CRRuns: len(crSeqs)}
		for _, seq := range benignSeqs {
			if p.Fires(seq) {
				row.BenignAlarms++
			}
		}
		for _, seq := range crSeqs {
			if p.Fires(seq) {
				row.CRDetected++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAlarms prints the run-level detection table.
func RenderAlarms(w io.Writer, rows []AlarmRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tbenign false alarms\tdiluted CR runs caught")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d/%d\t%d/%d\n", r.Policy, r.BenignAlarms, r.BenignRuns, r.CRDetected, r.CRRuns)
	}
	tw.Flush()
}
