package experiments

import "repro/internal/telemetry"

// Manifest starts a run manifest describing this configuration. The
// Config block holds every knob that determines results — two runs
// whose manifests match after ZeroVolatile (and Workers, which only
// changes wall-clock) ran the same experiment.
func (cfg Config) Manifest(tool string, args []string) *telemetry.Manifest {
	m := telemetry.NewManifest(tool, args)
	m.Seed = cfg.Seed
	m.Workers = cfg.workers()
	m.Config = map[string]any{
		"feature_size":      cfg.FeatureSize,
		"interval":          cfg.Interval,
		"samples_per_class": cfg.SamplesPerClass,
		"attempts":          cfg.Attempts,
		"secret_len":        len(cfg.Secret),
		"noise_sigma":       cfg.NoiseSigma,
		"budget":            cfg.Budget,
		"classifiers":       cfg.Classifiers,
		"reps":              cfg.Reps,
		"cpu": map[string]any{
			"spec_window":          cfg.CPU.SpecWindow,
			"mispredict_penalty":   cfg.CPU.MispredictPenalty,
			"speculation":          cfg.CPU.SpeculationEnabled,
			"squash_cache_effects": cfg.CPU.SquashCacheEffects,
			"fence_conditional":    cfg.CPU.FenceConditional,
			"privileged_flush":     cfg.CPU.PrivilegedFlush,
			"noise_period":         cfg.CPU.NoisePeriod,
			"predictor":            cfg.CPU.Predictor,
			"next_line_prefetch":   cfg.CPU.NextLinePrefetch,
		},
	}
	return m
}
