package spectre

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/perturb"
	"repro/internal/vm"
)

const testSecret = "SEKRIT42"

// setup builds a machine holding the secret in a separate loaded image
// (the "target" of the paper's threat model) and registers an attack
// binary generated for it.
func setup(t *testing.T, mutate func(*Config), cpuCfg *cpu.Config) (*vm.Machine, string) {
	t.Helper()
	holder := isa.MustAssemble(fmt.Sprintf(`
	halt
.data
.align 64
secret: .asciz %q
`, testSecret))

	vmCfg := vm.DefaultConfig()
	if cpuCfg != nil {
		vmCfg.CPU = *cpuCfg
	}
	m := vm.New(vmCfg)
	m.Register("target", holder, 0x200000)
	img, err := m.Load("target")
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		TargetAddr: img.MustSymbol("secret"),
		SecretLen:  len(testSecret),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	mod, err := cfg.Module()
	if err != nil {
		t.Fatalf("assemble %s: %v", cfg.Variant, err)
	}
	m.Register("spectre", mod, 0x400000)
	return m, testSecret
}

func TestAllVariantsRecoverSecret(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			m, secret := setup(t, func(c *Config) { c.Variant = v }, nil)
			if err := m.Exec("spectre", nil, 50_000_000); err != nil {
				t.Fatal(err)
			}
			if got := m.Output.String(); got != secret {
				t.Errorf("recovered %q, want %q", got, secret)
			}
		})
	}
}

func TestVariantsFailWithoutSpeculation(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.SpeculationEnabled = false
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			m, secret := setup(t, func(c *Config) { c.Variant = v }, &cfg)
			if err := m.Exec("spectre", nil, 50_000_000); err != nil {
				t.Fatal(err)
			}
			if got := m.Output.String(); got == secret {
				t.Errorf("variant %s leaked %q with speculation disabled", v, got)
			}
		})
	}
}

func TestV1FailsUnderInvisiSpec(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.SquashCacheEffects = true
	m, secret := setup(t, nil, &cfg)
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got == secret {
		t.Errorf("leak survived InvisiSpec-style squash: %q", got)
	}
}

func TestPerturbedAttackStillRecoversSecret(t *testing.T) {
	m, secret := setup(t, func(c *Config) {
		c.PerturbAsm = perturb.Paper().Asm()
	}, nil)
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != secret {
		t.Errorf("perturbed attack recovered %q, want %q", got, secret)
	}
}

func TestPerturbationChangesHPCProfile(t *testing.T) {
	run := func(p string) cpu.Snapshot {
		m, _ := setup(t, func(c *Config) { c.PerturbAsm = p }, nil)
		if err := m.Exec("spectre", nil, 50_000_000); err != nil {
			t.Fatal(err)
		}
		return m.CPU.Snapshot()
	}
	plain := run("")
	heavy := run(perturb.Scaled(8).Asm())
	if heavy.Flushes <= plain.Flushes {
		t.Errorf("perturbation added no flushes: %d vs %d", heavy.Flushes, plain.Flushes)
	}
	if heavy.Fences <= plain.Fences {
		t.Errorf("perturbation added no fences: %d vs %d", heavy.Fences, plain.Fences)
	}
	if heavy.Instructions <= plain.Instructions {
		t.Error("perturbation added no instructions")
	}
}

func TestMutatedVariantsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := perturb.Paper()
	m1 := base.Mutate(rng)
	m2 := m1.Mutate(rng)
	if m1 == base || m2 == m1 {
		t.Error("mutation returned identical parameters")
	}
	if m1.Asm() == m2.Asm() {
		t.Error("different parameters produced identical code")
	}
}

func TestSourceContainsVariantMachinery(t *testing.T) {
	for v, want := range map[Variant]string{
		V1BoundsCheck:      "arr1_size",
		VRSB:               "rsb_helper",
		VSpecStoreOverflow: "sbo_gadget",
		VBTB:               "bt_fnptr",
	} {
		src := Config{Variant: v, TargetAddr: 0x1000, SecretLen: 1}.Source()
		if !strings.Contains(src, want) {
			t.Errorf("%s source missing %q", v, want)
		}
	}
}

func TestResumePathEmitted(t *testing.T) {
	src := Config{TargetAddr: 1, SecretLen: 1, ResumePath: "host#workload_entry"}.Source()
	if !strings.Contains(src, `"host#workload_entry"`) {
		t.Error("resume path not in source")
	}
	if !strings.Contains(src, "movi r0, 3") {
		t.Error("resume exec syscall not emitted")
	}
}

func TestVariantStringAndList(t *testing.T) {
	if len(AllVariants()) != int(numVariants) {
		t.Errorf("AllVariants() lists %d of %d", len(AllVariants()), numVariants)
	}
	seen := map[string]bool{}
	for _, v := range AllVariants() {
		s := v.String()
		if seen[s] {
			t.Errorf("duplicate variant name %q", s)
		}
		seen[s] = true
	}
}

func TestThresholdDefaultApplied(t *testing.T) {
	src := Config{TargetAddr: 1, SecretLen: 1}.Source()
	if !strings.Contains(src, "cmpi r4, 100") {
		t.Error("default threshold 100 not applied")
	}
	src = Config{TargetAddr: 1, SecretLen: 1, Threshold: 77}.Source()
	if !strings.Contains(src, "cmpi r4, 77") {
		t.Error("custom threshold not applied")
	}
}

// noisyCPU returns a core config with co-tenant cache interference.
func noisyCPU(period uint64) *cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.NoisePeriod = period
	cfg.NoiseSeed = 77
	return &cfg
}

// TestNoiseCorruptsSingleRoundLeak establishes the lossy-channel
// premise: under heavy interference a single-round receiver drops or
// corrupts bytes.
func TestNoiseCorruptsSingleRoundLeak(t *testing.T) {
	m, secret := setup(t, nil, noisyCPU(150))
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got == secret {
		t.Skip("interference too gentle at this seed; premise not exercised")
	}
}

// TestVotingReceiverSurvivesNoise: the multi-round scoring receiver
// recovers the secret through the same interference.
func TestVotingReceiverSurvivesNoise(t *testing.T) {
	m, secret := setup(t, func(c *Config) { c.Rounds = 7 }, noisyCPU(150))
	if err := m.Exec("spectre", nil, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != secret {
		t.Errorf("voted receiver recovered %q, want %q", got, secret)
	}
}

func TestVotingReceiverCleanChannel(t *testing.T) {
	m, secret := setup(t, func(c *Config) { c.Rounds = 3 }, nil)
	if err := m.Exec("spectre", nil, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != secret {
		t.Errorf("voted receiver on clean channel recovered %q", got)
	}
}

func TestVotedSourceOnlyWhenRoundsSet(t *testing.T) {
	plain := Config{TargetAddr: 1, SecretLen: 1}.Source()
	if strings.Contains(plain, "leak_byte_voted") {
		t.Error("single-round source contains the voting wrapper")
	}
	voted := Config{TargetAddr: 1, SecretLen: 1, Rounds: 5}.Source()
	if !strings.Contains(voted, "leak_byte_voted") || !strings.Contains(voted, "lbv_tally") {
		t.Error("voted source missing the voting machinery")
	}
}

// TestGshareBlocksLoopedTraining / TestHistoryMatchedTrainingBeatsGshare: a
// history-indexed predictor breaks the loop-based mistraining (the
// training loop's own branches desynchronise the global history between
// training and attack), and history-matched straight-line training
// restores the leak — the adaptive arms race one level down.
func TestGshareBlocksLoopedTraining(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Predictor = "gshare"
	m, secret := setup(t, nil, &cfg)
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got == secret {
		t.Skip("looped training already beats gshare at this layout; premise not exercised")
	}
}

func TestHistoryMatchedTrainingBeatsGshare(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Predictor = "gshare"
	m, secret := setup(t, func(c *Config) { c.HistoryMatched = true }, &cfg)
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != secret {
		t.Errorf("history-matched training recovered %q, want %q", got, secret)
	}
}

func TestHistoryMatchedTrainingAlsoWorksOnPHT(t *testing.T) {
	m, secret := setup(t, func(c *Config) { c.HistoryMatched = true }, nil)
	if err := m.Exec("spectre", nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.Output.String(); got != secret {
		t.Errorf("recovered %q", got)
	}
}

// TestContextSensitiveFencingIsIncomplete reproduces the known gap of
// conditional-branch-only Spectre mitigations (paper ref [19] fences the
// dynamic instruction stream around conditional control flow): the v1
// and spec-store-overflow variants die, but the RSB and BTB variants —
// whose transient windows come from return/indirect prediction — keep
// leaking.
func TestContextSensitiveFencingIsIncomplete(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.FenceConditional = true
	blocked := []Variant{V1BoundsCheck, VSpecStoreOverflow}
	alive := []Variant{VRSB, VBTB}
	for _, v := range blocked {
		m, secret := setup(t, func(c *Config) { c.Variant = v }, &cfg)
		if err := m.Exec("spectre", nil, 50_000_000); err != nil {
			t.Fatal(err)
		}
		if got := m.Output.String(); got == secret {
			t.Errorf("%s leaked through conditional fencing: %q", v, got)
		}
	}
	for _, v := range alive {
		m, secret := setup(t, func(c *Config) { c.Variant = v }, &cfg)
		if err := m.Exec("spectre", nil, 50_000_000); err != nil {
			t.Fatal(err)
		}
		if got := m.Output.String(); got != secret {
			t.Errorf("%s should bypass conditional-only fencing, got %q", v, got)
		}
	}
}

// TestAssembleAllocs gates the assembler's allocations on the v1 attack
// source, which every CR run assembles: a symbolic operand (call
// leak_byte, movi r13, probe) must not build number-parse errors only to
// throw them away.
func TestAssembleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race changes allocation counts")
	}
	src := Config{Variant: V1BoundsCheck, TargetAddr: 0x200000, SecretLen: 8}.Source()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := isa.Assemble(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Errorf("assembling the v1 attack source: %.0f allocations, want at most 400", allocs)
	}
	t.Logf("assembling the v1 attack source: %.0f allocations", allocs)
}
