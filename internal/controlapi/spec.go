// Package controlapi is the crspectred daemon's control surface: an
// HTTP/JSON job API that accepts campaign jobs, queues them onto
// internal/sched worker pools under a per-daemon concurrency limit,
// streams per-job progress and telemetry events, and serves the
// finished artifacts (manifest JSON, CSV series) from a per-job
// artifact store.
//
// The execution contract is worker-invariance: a job runs through
// exactly the same engine code path as the equivalent CLI invocation
// (experiments.RunCampaign for the campaign kinds), so its results and
// manifest are byte-identical — after telemetry.Manifest.ZeroVolatile,
// the repo-wide convention — to a cmd/experiments run of the same
// configuration at any worker count. The daemon adds scheduling,
// observability and lifecycle around the engine; it never adds state
// the engine's numbers could depend on.
//
// Job lifecycle (see DESIGN.md §13 for the full state machine):
//
//	queued ──> running ──> done
//	   │           ├─────> failed
//	   └───────────┴─────> cancelled
package controlapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/defense"
	"repro/internal/spectre"
)

// JobSpec is the wire form of one campaign job. The zero value of every
// optional field selects the same default the equivalent CLI flag has,
// which is what keeps daemon and CLI runs byte-identical.
type JobSpec struct {
	// ID is the client-supplied job identifier, used for idempotent
	// submission: re-submitting a spec with an ID the daemon already
	// knows returns the existing job instead of spawning a second one
	// (the client's retry path relies on this). Empty means the daemon
	// assigns one. IDs become artifact directory names, so the alphabet
	// is restricted (see validID).
	ID string `json:"id,omitempty"`
	// Kind selects the workload: a campaign section ("fig4", "fig5",
	// "fig6", "table1") run through experiments.RunCampaign, or
	// "attack" — repetitions of the end-to-end injection chain under a
	// named defense posture (defense.Evaluate).
	Kind string `json:"kind"`
	// Seed drives every stochastic component (default 1, like the CLIs).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the job's sched fan-out (0 = the daemon default).
	// Any value produces byte-identical results; only wall-clock and the
	// manifest's informational workers field change.
	Workers int `json:"workers,omitempty"`
	// Samples is the per-class training-corpus size for campaign kinds
	// (0 = experiments.DefaultConfig's value, the CLI default).
	Samples int `json:"samples,omitempty"`
	// Attempts is the attack-attempt count for campaign kinds (0 =
	// experiments.DefaultConfig's value).
	Attempts int `json:"attempts,omitempty"`
	// Reps is the repetition count: Table I cell averaging for
	// "table1", evaluation repetitions for "attack" (0 = the kind's
	// default: 3 and 1 respectively).
	Reps int `json:"reps,omitempty"`
	// Variant names the speculation primitive for "attack" jobs, from
	// spectre.VariantNames (default "v1-bounds-check").
	Variant string `json:"variant,omitempty"`
	// Posture names the defensive configuration for "attack" jobs, from
	// defense.PostureNames (default "dep").
	Posture string `json:"posture,omitempty"`
	// Perturb injects Algorithm 2's defense-aware perturbation routine
	// into "attack" runs.
	Perturb bool `json:"perturb,omitempty"`
}

// JobKinds lists the accepted Kind values.
func JobKinds() []string { return []string{"fig4", "fig5", "fig6", "table1", "attack"} }

// Submission caps: a decoded spec is about to command simulator time,
// so absurd values are a 400, not an OOM or a week-long job.
const (
	maxSpecBytes = 1 << 16
	maxSamples   = 100_000
	maxAttempts  = 10_000
	maxReps      = 100_000
	maxWorkers   = 4 << 10
	maxIDLen     = 64
)

// DecodeJobSpec strictly decodes and validates one job payload: unknown
// fields, trailing data, wrong types, out-of-range values, and unknown
// kind/variant/posture names are all errors. The server maps every
// error from here to a 400 — a spec that decodes is safe to run, which
// is the property FuzzJobSpecDecode pins (no panic, no resource
// commitment, on any byte soup).
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("controlapi: decode job spec: %w", err)
	}
	// A second document (or any non-space trailing bytes) is smuggling,
	// not a spec.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return JobSpec{}, errors.New("controlapi: decode job spec: trailing data after JSON document")
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// Validate checks every field against its domain. It never mutates the
// spec: defaults are applied at execution time so the stored spec
// reflects exactly what the client asked for.
func (s JobSpec) Validate() error {
	if s.ID != "" && !validID(s.ID) {
		return fmt.Errorf("controlapi: invalid job id %q: want 1-%d chars of [a-zA-Z0-9_-]", s.ID, maxIDLen)
	}
	kindOK := false
	for _, k := range JobKinds() {
		if s.Kind == k {
			kindOK = true
			break
		}
	}
	if !kindOK {
		return fmt.Errorf("controlapi: unknown job kind %q: want one of %s", s.Kind, strings.Join(JobKinds(), ", "))
	}
	switch {
	case s.Samples < 0 || s.Samples > maxSamples:
		return fmt.Errorf("controlapi: samples %d out of range [0, %d]", s.Samples, maxSamples)
	case s.Attempts < 0 || s.Attempts > maxAttempts:
		return fmt.Errorf("controlapi: attempts %d out of range [0, %d]", s.Attempts, maxAttempts)
	case s.Reps < 0 || s.Reps > maxReps:
		return fmt.Errorf("controlapi: reps %d out of range [0, %d]", s.Reps, maxReps)
	case s.Workers < 0 || s.Workers > maxWorkers:
		return fmt.Errorf("controlapi: workers %d out of range [0, %d]", s.Workers, maxWorkers)
	}
	if s.Variant != "" {
		if _, ok := spectre.VariantByName(s.Variant); !ok {
			return fmt.Errorf("controlapi: unknown variant %q: want one of %s",
				s.Variant, strings.Join(spectre.VariantNames(), ", "))
		}
	}
	if s.Posture != "" {
		if _, ok := defense.PostureByName(s.Posture); !ok {
			return fmt.Errorf("controlapi: unknown posture %q: want one of %s",
				s.Posture, strings.Join(defense.PostureNames(), ", "))
		}
	}
	return nil
}

// validID restricts job IDs to a filesystem- and URL-safe alphabet:
// they name artifact directories, so this is the path-traversal guard.
func validID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '-' || c == '_' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}
