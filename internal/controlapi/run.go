package controlapi

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
)

// Artifact file names every job writes (campaign kinds add their CSV
// series next to these).
const (
	artifactManifest = "manifest.json"
	artifactLog      = "job.log"
	artifactAttack   = "attack.json"
	artifactTrace    = "trace.json"
)

// campaignSection maps a campaign job kind onto the section selector.
func campaignSection(kind string) (experiments.CampaignSpec, bool) {
	switch kind {
	case "fig4":
		return experiments.CampaignSpec{Fig4: true}, true
	case "fig5":
		return experiments.CampaignSpec{Fig5: true}, true
	case "fig6":
		return experiments.CampaignSpec{Fig6: true}, true
	case "table1":
		return experiments.CampaignSpec{Table1: true}, true
	}
	return experiments.CampaignSpec{}, false
}

// config resolves the spec into the engine configuration, mirroring
// cmd/experiments' flag handling field for field — the byte-identity
// contract depends on an unset spec field and an unset CLI flag
// producing the same Config.
func (s JobSpec) config(defaultWorkers int, j *job, ctx context.Context) experiments.Config {
	cfg := experiments.DefaultConfig()
	if s.Samples > 0 {
		cfg.SamplesPerClass = s.Samples
	}
	if s.Attempts > 0 {
		cfg.Attempts = s.Attempts
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Reps > 0 {
		cfg.Reps = s.Reps
	}
	cfg.Workers = s.Workers
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	cfg.Sinks = j.Sinks
	cfg.BaseCtx = ctx
	return cfg
}

// runJob executes one job into its artifact directory. It returns the
// engine error verbatim (the caller classifies context cancellation as
// StateCancelled); whatever happens, the run manifest is flushed before
// returning — a drained or cancelled job still leaves a provenance
// record of what it did.
func (s *Server) runJob(ctx context.Context, j *job) error {
	start := time.Now()
	spec := j.spec

	logf, err := os.Create(filepath.Join(j.dir, artifactLog))
	if err != nil {
		return fmt.Errorf("controlapi: job %s: %w", j.id, err)
	}
	defer logf.Close()

	// Whatever the outcome, the job leaves a Perfetto-loadable trace of
	// the ring's retained events next to the manifest — the same
	// best-effort flight record the CLIs' -trace flag writes (ring-
	// capacity-bounded, so volatile by nature; the deterministic census
	// lives in the manifest's events block).
	defer func() {
		_ = telemetry.WriteChromeTraceFile(filepath.Join(j.dir, artifactTrace), j.Telemetry.Events())
	}()

	var runErr error
	if section, ok := campaignSection(spec.Kind); ok {
		cfg := spec.config(s.opts.DefaultWorkers, j, ctx)
		// Tool and manifest flow mirror cmd/experiments exactly: the
		// daemon is a scheduler around the same engine, and the manifest
		// records the engine run, not the scheduler.
		m := cfg.Manifest("experiments", nil)
		m.RunID = s.opts.RunID
		runErr = experiments.RunCampaign(cfg, section, logf, j.dir)
		j.Finish(m, start)
		if werr := m.WriteFile(filepath.Join(j.dir, artifactManifest)); werr != nil && runErr == nil {
			runErr = werr
		}
		return runErr
	}
	// "attack": Reps end-to-end injection-chain evaluations under the
	// named posture, fanned out like any experiment driver with per-rep
	// derived seeds — worker-invariant by the same rule.
	runErr = s.runAttackJob(ctx, j, spec, logf, start)
	return runErr
}

// attackSummary is the attack.json artifact: the deterministic
// aggregation of every repetition's outcome.
type attackSummary struct {
	Variant   string          `json:"variant"`
	Posture   string          `json:"posture"`
	Perturb   bool            `json:"perturb,omitempty"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	Successes int             `json:"successes"`
	Injected  int             `json:"injected"`
	Stages    map[string]int  `json:"stages"`
	First     defense.Outcome `json:"first_outcome"`
}

func (s *Server) runAttackJob(ctx context.Context, j *job, spec JobSpec, logf *os.File, start time.Time) error {
	variantName := spec.Variant
	if variantName == "" {
		variantName = spectre.V1BoundsCheck.String()
	}
	postureName := spec.Posture
	if postureName == "" {
		postureName = "dep"
	}
	// Validate already vetted the names; resolve them again defensively.
	variant, ok := spectre.VariantByName(variantName)
	if !ok {
		return fmt.Errorf("controlapi: unknown variant %q", variantName)
	}
	posture, ok := defense.PostureByName(postureName)
	if !ok {
		return fmt.Errorf("controlapi: unknown posture %q", postureName)
	}
	reps := spec.Reps
	if reps <= 0 {
		reps = 1
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = s.opts.DefaultWorkers
	}
	// The adaptive attacker of the matrix's strongest rows: both info
	// leaks available, so the posture's speculation defenses — not the
	// memory defenses the paper's §I already concedes — decide the cell.
	atk := defense.Attacker{
		Variant:    variant,
		Perturb:    spec.Perturb,
		LeakCanary: true,
		LeakLayout: true,
	}

	m := telemetry.NewManifest("crspectred", nil)
	m.RunID = s.opts.RunID
	m.Seed = seed
	m.Workers = sched.Workers(workers)
	m.Config = map[string]any{
		"kind":    "attack",
		"variant": variantName,
		"posture": postureName,
		"perturb": spec.Perturb,
		"reps":    reps,
	}

	outcomes, runErr := sched.Map(sched.WithSinks(ctx, j.Sinks, "attack"), workers, reps,
		func(_ context.Context, i int) (defense.Outcome, error) {
			return defense.Evaluate(posture, atk, sched.DeriveSeed(seed, uint64(i)))
		})

	if runErr == nil {
		sum := attackSummary{
			Variant: variantName, Posture: postureName, Perturb: spec.Perturb,
			Seed: seed, Reps: reps, Stages: make(map[string]int, 4),
			First: outcomes[0],
		}
		for _, o := range outcomes {
			if o.Success {
				sum.Successes++
			}
			if o.Injected {
				sum.Injected++
			}
			sum.Stages[string(o.Stage)]++
		}
		fmt.Fprintf(logf, "attack %s vs %s: %d/%d recovered the secret (%d injected)\n",
			variantName, postureName, sum.Successes, reps, sum.Injected)
		b, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(j.dir, artifactAttack), append(b, '\n'), 0o644)
		}
		if err != nil {
			runErr = fmt.Errorf("controlapi: job %s: %w", j.id, err)
		}
	}

	j.Finish(m, start)
	if werr := m.WriteFile(filepath.Join(j.dir, artifactManifest)); werr != nil && runErr == nil {
		runErr = werr
	}
	return runErr
}
