// Evadehid plays the paper's §II-E feedback loop from the attacker's
// seat: train an online HID, then repeatedly attack — whenever the
// detector scores the current perturbation variant above the 80%
// detection threshold, mutate Algorithm 2's parameters and try again.
// The trace shows the defender recovering (retraining) and the attacker
// escaping (mutating), the dynamics behind Fig. 6(b).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/spectre"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.SamplesPerClass = 150
	cfg.Secret = "EXFILTR8"

	fmt.Println("training the online HID (deep NN) on benign + Spectre traces...")
	corp, err := cfg.Corpora()
	if err != nil {
		log.Fatal(err)
	}
	det := hid.NewOnline(ml.NewDeepNN(1))
	if err := det.Train(corp.Train(cfg.FeatureSize)); err != nil {
		log.Fatal(err)
	}

	host, err := mibench.ByName("math")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	variant := perturb.Paper()
	probeDelay := int64(0)

	fmt.Println("\nattempt  accuracy  verdict    action")
	for attempt := 1; attempt <= 8; attempt++ {
		spec := experiments.AttackSpec{
			Variant:    spectre.V1BoundsCheck,
			Perturb:    &variant,
			ProbeDelay: probeDelay,
		}
		cr, err := experiments.RunCR(cfg, host, spec, int64(attempt))
		if err != nil {
			log.Fatal(err)
		}
		if cr.Recovered != cfg.Secret {
			fmt.Printf("%7d  (secret lost: %q)\n", attempt, cr.Recovered)
			continue
		}
		eval, err := experiments.CREvalSet(cfg, cr, corp.Benign)
		if err != nil {
			log.Fatal(err)
		}
		acc := det.Accuracy(eval.Data)
		verdict := hid.Judge(acc)

		action := "keep variant"
		if acc > hid.DetectThreshold {
			variant = variant.Mutate(rng)
			probeDelay = 60 + rng.Int63n(400)
			action = "caught -> mutate to " + variant.String()
		}
		fmt.Printf("%7d  %6.1f%%   %-9s  %s\n", attempt, 100*acc, verdict, action)

		// The defender retrains on what it observed (online HID).
		if err := det.Observe(eval.Data); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nthe secret was exfiltrated on every attempt; detection oscillates")
	fmt.Println("as the defender retrains and the attacker mutates — Fig. 6(b).")
}
