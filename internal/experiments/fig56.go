package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// AttemptPoint is one plotted point of Figs. 5/6: a detector's accuracy
// on one attack attempt's trace mix.
type AttemptPoint struct {
	Classifier string
	Attempt    int
	Accuracy   float64
	Verdict    hid.Verdict
	Variant    string // perturbation variant in effect ("" for plain)
	Recovered  bool   // the covert channel returned the exact secret
}

// CampaignResult holds both panels of Fig. 5 or Fig. 6.
type CampaignResult struct {
	Online bool
	// Plain is panel (a): the traditional standalone Spectre attack.
	Plain []AttemptPoint
	// CR is panel (b): ROP-injected CR-Spectre with perturbations.
	CR []AttemptPoint
}

// Fig5 runs the offline-HID campaign (panel a: plain Spectre stays
// detected at high accuracy; panel b: CR-Spectre with the static
// Algorithm-2 variant plus a ramping dispersion schedule degrades the
// static detector below the 55% evasion threshold).
func Fig5(cfg Config) (*CampaignResult, error) { return cfg.campaign(false) }

// Fig6 runs the online-HID campaign (panel a: retraining keeps the
// detector leveled; panel b: dynamic perturbation mutation each time the
// detector exceeds 80% produces the sawtooth degradation with the low
// observed minima).
func Fig6(cfg Config) (*CampaignResult, error) { return cfg.campaign(true) }

// detector abstracts the offline/online HIDs for the campaign loop.
type detector interface {
	Train(ml.Dataset) error
	Accuracy(ml.Dataset) float64
	Name() string
}

// campaignState is one detector with its attacker's adaptation state.
// Each state owns its detector, variant and rng, so the states of one
// campaign train, score and retrain concurrently.
type campaignState struct {
	det        detector
	online     *hid.Online // non-nil in the online campaign
	variant    perturb.Params
	probeDelay int64
	rng        *rand.Rand
}

// newStates builds and trains one detector per classifier for each of
// the two panels, fanned out over the campaign-hid pool: the first
// len(cfg.Classifiers) states face plain Spectre, the rest CR-Spectre.
func (cfg Config) newStates(online bool, train ml.Dataset) ([]*campaignState, error) {
	n := len(cfg.Classifiers)
	return sched.Map(cfg.ctx("campaign-hid"), cfg.workers(), 2*n,
		func(_ context.Context, t int) (*campaignState, error) {
			i, seedOff := t%n, int64(t/n)*1000
			name := cfg.Classifiers[i]
			clf, ok := ml.ByName(name, cfg.Seed+int64(i)+seedOff)
			if !ok {
				return nil, fmt.Errorf("campaign: unknown classifier %q", name)
			}
			st := &campaignState{
				variant: perturb.Paper(),
				rng:     rand.New(rand.NewSource(cfg.Seed + int64(i)*97 + seedOff)),
			}
			if online {
				o := hid.NewOnline(clf)
				st.det, st.online = o, o
			} else {
				st.det = hid.New(clf)
			}
			if err := st.det.Train(train); err != nil {
				return nil, fmt.Errorf("campaign: train %s: %w", name, err)
			}
			return st, nil
		})
}

// score fills p with the detector's accuracy and verdict on one attempt's
// evaluation mix; an online detector then retrains on that mix.
func (st *campaignState) score(eval ml.Dataset, p AttemptPoint) (AttemptPoint, error) {
	p.Classifier = st.det.Name()
	p.Accuracy = st.det.Accuracy(eval)
	p.Verdict = hid.Judge(p.Accuracy)
	if st.online != nil {
		if err := st.online.Observe(eval); err != nil {
			return p, err
		}
	}
	return p, nil
}

func (cfg Config) campaign(online bool) (*CampaignResult, error) {
	corp, err := cfg.Corpora()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	states, err := cfg.newStates(online, corp.Train(cfg.FeatureSize))
	if err != nil {
		return nil, err
	}
	plainStates, crStates := states[:len(cfg.Classifiers)], states[len(cfg.Classifiers):]

	benignEval := corp.Benign.Project(cfg.FeatureSize)
	host, err := mibench.ByName("math")
	if err != nil {
		return nil, err
	}
	variants := spectre.Variants()
	res := &CampaignResult{Online: online}

	// attemptSim is what one of an attempt's fanned-out simulations
	// keeps once its pooled machine and sample buffer go back: the
	// evaluation mix the detectors score, built inside the task from
	// the run's samples. Task 0 is the panel-(a) standalone run, tasks
	// 1..len(crStates) the per-detector CR runs.
	type attemptSim struct {
		eval      ml.Dataset
		recovered bool // the exact secret came back (and, for CR, was injected)
	}

	for attempt := 1; attempt <= cfg.Attempts; attempt++ {
		seed := cfg.Seed*1_000_003 + int64(attempt)

		// Panel (a): plain standalone Spectre, variants rotating across
		// attempts (the paper averages over the variant set).
		spec := AttackSpec{Variant: variants[(attempt-1)%len(variants)]}

		// Panel (b) specs: offline HIDs face the single static
		// Algorithm-2 variant with the dispersion-delay schedule ramping
		// per attempt (no feedback needed against a detector that never
		// learns); online HIDs face per-detector dynamic mutation. Each
		// spec reads only state fixed at the start of the attempt, so
		// they are captured here and the simulations fan out across the
		// pool, each building its evaluation mix (attackEval reads only
		// benignEval, and evalMix's RNG is private to the call).
		// Scoring, retraining and mutation then fan out per detector
		// below, once every simulation has finished.
		crSpecs := make([]AttackSpec, len(crStates))
		crVariants := make([]perturb.Params, len(crStates))
		for j, st := range crStates {
			variant := st.variant
			var pd int64
			if online {
				pd = st.probeDelay
			} else {
				variant = perturb.Paper()
				variant.Delay = int64(attempt) * 30
				pd = int64(attempt-1) * 90
			}
			crVariants[j] = variant
			crSpecs[j] = AttackSpec{
				Variant:    variants[(attempt-1)%len(variants)],
				Perturb:    &crVariants[j],
				ProbeDelay: pd,
			}
		}
		sims, err := mapMachines(cfg, "campaign", 1+len(crStates),
			func(_ context.Context, m *vm.Machine, t int) (attemptSim, error) {
				buf := getSamples()
				defer putSamples(buf)
				if t == 0 {
					samples, err := cfg.standaloneRun(m, spec, seed, buf)
					if err != nil {
						return attemptSim{}, fmt.Errorf("campaign: attempt %d standalone: %w", attempt, err)
					}
					eval := cfg.attackEval("spectre", samples, seed, benignEval, seed)
					return attemptSim{eval.Data, m.Output.String() == cfg.Secret}, nil
				}
				st := crStates[t-1]
				cr, err := cfg.crRun(m, host, crSpecs[t-1], seed+int64(len(st.det.Name())), buf)
				if err != nil {
					return attemptSim{}, fmt.Errorf("campaign: attempt %d cr (%s): %w", attempt, st.det.Name(), err)
				}
				eval := cfg.attackEval("cr-spectre", cr.Samples, seed, benignEval, seed+7)
				return attemptSim{eval.Data, cr.Recovered == cfg.Secret && cr.Injected}, nil
			})
		if err != nil {
			return nil, err
		}

		points, err := sched.Map(cfg.ctx("campaign-hid"), cfg.workers(), len(states),
			func(_ context.Context, t int) (AttemptPoint, error) {
				st := states[t]
				if t < len(plainStates) {
					return st.score(sims[0].eval, AttemptPoint{Attempt: attempt, Recovered: sims[0].recovered})
				}
				j := t - len(plainStates)
				sim := sims[1+j]
				p, err := st.score(sim.eval, AttemptPoint{
					Attempt:   attempt,
					Variant:   crVariants[j].String(),
					Recovered: sim.recovered,
				})
				// Defense-aware adaptation (§II-E): mutate when caught.
				if err == nil && st.online != nil && p.Accuracy > hid.DetectThreshold {
					st.variant = st.variant.Mutate(st.rng)
					st.probeDelay = 60 + st.rng.Int63n(400)
				}
				return p, err
			})
		if err != nil {
			return nil, err
		}
		res.Plain = append(res.Plain, points[:len(plainStates)]...)
		res.CR = append(res.CR, points[len(plainStates):]...)
	}
	return res, nil
}

// MeanAccuracy averages a panel's accuracy.
func MeanAccuracy(panel []AttemptPoint) float64 {
	if len(panel) == 0 {
		return 0
	}
	var s float64
	for _, p := range panel {
		s += p.Accuracy
	}
	return s / float64(len(panel))
}

// MinAccuracy returns the lowest accuracy in a panel (the paper reports
// a 16% minimum for the online CR campaign).
func MinAccuracy(panel []AttemptPoint) float64 {
	if len(panel) == 0 {
		return 0
	}
	minA := panel[0].Accuracy
	for _, p := range panel {
		if p.Accuracy < minA {
			minA = p.Accuracy
		}
	}
	return minA
}
