package repro

import (
	"testing"
)

func TestRunAttackEndToEnd(t *testing.T) {
	rep, err := RunAttack(AttackOptions{
		Host:    "math",
		Variant: "v1-bounds-check",
		Secret:  "TOPSECRET",
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Injected {
		t.Error("ROP injection did not happen")
	}
	if !rep.SecretCorrect {
		t.Errorf("recovered %q, want TOPSECRET", rep.Recovered)
	}
	if !rep.HostCompleted {
		t.Error("host workload did not complete under the cloak")
	}
	if rep.GadgetsFound == 0 || rep.ChainWords == 0 {
		t.Errorf("gadget bookkeeping empty: %d gadgets, %d chain words", rep.GadgetsFound, rep.ChainWords)
	}
	if rep.IPC <= 0 || rep.Samples == 0 {
		t.Errorf("profiling missing: ipc=%v samples=%d", rep.IPC, rep.Samples)
	}
}

func TestRunAttackAllVariants(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v, func(t *testing.T) {
			t.Parallel()
			rep, err := RunAttack(AttackOptions{Variant: v, Secret: "S3CRET", Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.SecretCorrect {
				t.Errorf("variant %s recovered %q", v, rep.Recovered)
			}
		})
	}
}

func TestRunAttackWithDetector(t *testing.T) {
	rep, err := RunAttack(AttackOptions{
		Secret:    "S3CRET",
		Perturbed: true,
		Detector:  "lr",
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectorName != "lr" {
		t.Error("detector not recorded")
	}
	if rep.DetectionRate < 0 || rep.DetectionRate > 1 {
		t.Errorf("detection rate %v out of range", rep.DetectionRate)
	}
	if rep.DetectorVerdict == "" {
		t.Error("verdict missing")
	}
}

func TestRunAttackRejectsUnknowns(t *testing.T) {
	if _, err := RunAttack(AttackOptions{Variant: "bogus"}); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := RunAttack(AttackOptions{Host: "bogus"}); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := RunAttack(AttackOptions{Detector: "bogus"}); err == nil {
		t.Error("unknown detector accepted")
	}
}

func TestWorkloadsAndVariantsLists(t *testing.T) {
	if len(Variants()) != 4 {
		t.Errorf("variants = %v", Variants())
	}
	ws := Workloads()
	if len(ws) < 10 {
		t.Errorf("workloads = %v", ws)
	}
	found := map[string]bool{}
	for _, w := range ws {
		found[w] = true
	}
	for _, want := range []string{"math", "bitcount_50M", "sha_1", "editor"} {
		if !found[want] {
			t.Errorf("workload list missing %q", want)
		}
	}
}
