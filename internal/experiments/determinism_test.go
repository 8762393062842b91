package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/mibench"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// The golden determinism contract of the parallel experiment engine:
// for any experiment, a run with Workers=N must produce byte-identical
// results to Workers=1, and two runs at the same (seed, workers) must be
// identical. These tests are the enforcement mechanism behind
// internal/sched's RNG-derivation rule; CI runs them under the race
// detector with GOMAXPROCS=4.

// detCfg is a deliberately tiny configuration so the Workers sweep stays
// CI-cheap.
func detCfg(workers int) Config {
	cfg := testConfig()
	cfg.SamplesPerClass = 40
	cfg.Workers = workers
	return cfg
}

func TestDeterminismCorpora(t *testing.T) {
	build := func(workers int) (benignApps []string, benignX [][]float64, attackApps []string, attackX [][]float64) {
		cfg := detCfg(workers)
		b, err := cfg.BenignCorpus(mibench.Backgrounds(), 40)
		if err != nil {
			t.Fatal(err)
		}
		a, err := cfg.AttackCorpus(40)
		if err != nil {
			t.Fatal(err)
		}
		return b.Apps, b.Data.X, a.Apps, a.Data.X
	}
	bApps1, bX1, aApps1, aX1 := build(1)
	bApps4, bX4, aApps4, aX4 := build(4)
	if !reflect.DeepEqual(bApps1, bApps4) || !reflect.DeepEqual(bX1, bX4) {
		t.Error("benign corpus differs between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(aApps1, aApps4) || !reflect.DeepEqual(aX1, aX4) {
		t.Error("attack corpus differs between Workers=1 and Workers=4")
	}
	_, bX4b, _, aX4b := build(4)
	if !reflect.DeepEqual(bX4, bX4b) || !reflect.DeepEqual(aX4, aX4b) {
		t.Error("two Workers=4 corpus builds with the same seed differ")
	}
}

func TestDeterminismFig4(t *testing.T) {
	run := func(workers int) ([]Fig4Row, []byte) {
		rows, err := Fig4(detCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		Fig4CSV(&csv, rows)
		return rows, csv.Bytes()
	}
	rows1, csv1 := run(1)
	rows4, csv4 := run(4)
	if !reflect.DeepEqual(rows1, rows4) {
		t.Errorf("Fig4 rows differ between Workers=1 and Workers=4:\n%v\nvs\n%v", rows1, rows4)
	}
	if !bytes.Equal(csv1, csv4) {
		t.Error("Fig4 CSV output not byte-identical across worker counts")
	}
	rows4b, csv4b := run(4)
	if !reflect.DeepEqual(rows4, rows4b) || !bytes.Equal(csv4, csv4b) {
		t.Error("two Workers=4 Fig4 runs with the same seed differ")
	}
}

func TestDeterminismTable1(t *testing.T) {
	workloads := []mibench.Workload{
		mibench.Math(2_000),
		mibench.SHA1(150),
	}
	run := func(workers int) ([]Table1Row, []byte) {
		cfg := detCfg(workers)
		cfg.Reps = 2
		rows, err := Table1For(cfg, workloads)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		Table1CSV(&csv, rows)
		return rows, csv.Bytes()
	}
	rows1, csv1 := run(1)
	rows4, csv4 := run(4)
	if !reflect.DeepEqual(rows1, rows4) {
		t.Errorf("Table1 rows differ between Workers=1 and Workers=4:\n%v\nvs\n%v", rows1, rows4)
	}
	if !bytes.Equal(csv1, csv4) {
		t.Error("Table1 CSV output not byte-identical across worker counts")
	}
	rows4b, csv4b := run(4)
	if !reflect.DeepEqual(rows4, rows4b) || !bytes.Equal(csv4, csv4b) {
		t.Error("two Workers=4 Table1 runs with the same seed differ")
	}
}

// TestDeterminismManifest extends the contract to telemetry: the run
// manifest — config block, metrics snapshot, per-kind event totals —
// must be byte-identical across worker counts once the volatile fields
// (timings, build, host) and the worker count itself are zeroed. This
// holds because event counts are monotonic sums over per-machine
// emissions, independent of ring capacity and emit interleaving.
func TestDeterminismManifest(t *testing.T) {
	build := func(workers int) []byte {
		cfg := detCfg(workers)
		cfg.Telemetry = telemetry.NewRecorder(256) // tiny ring: counts must not care
		cfg.Metrics = telemetry.NewRegistry()
		// The tracker rides along: its manifest snapshot (pool lifecycle
		// totals, instruction counts) is part of the invariance contract,
		// while its wall-clock surface (latency histograms, rates) must
		// stay out of the manifest entirely.
		cfg.Tracker = sched.NewTracker(cfg.Metrics, cfg.Telemetry, nil)
		if _, err := cfg.AttackCorpus(24); err != nil {
			t.Fatal(err)
		}
		m := cfg.Manifest("experiments-test", nil)
		obs.Sinks{Recorder: cfg.Telemetry, Registry: cfg.Metrics, Tracker: cfg.Tracker}.Finish(m, time.Now())
		m.ZeroVolatile()
		m.Workers = 0
		out, err := m.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	m1, m4 := build(1), build(4)
	if !bytes.Equal(m1, m4) {
		t.Errorf("manifests differ between Workers=1 and Workers=4:\n%s\nvs\n%s", m1, m4)
	}
	if !bytes.Contains(m1, []byte(`"attack-corpus"`)) {
		t.Error("manifest lacks the attack-corpus progress pool")
	}
	if bytes.Contains(m1, []byte("task_ms")) {
		t.Error("wall-clock latency histogram leaked into the manifest")
	}
	if m4b := build(4); !bytes.Equal(m4, m4b) {
		t.Error("two Workers=4 manifests with the same seed differ")
	}
}

// TestDeterminismBlockMetrics pins the block-tier metrics triple
// (blocks.compiled / blocks.hits / blocks.invalidations): published
// per finished machine with commutative Add, the totals must be
// identical for any worker count — and non-zero, proving the superblock
// tier actually served the experiment rather than silently falling back
// to single-step.
func TestDeterminismBlockMetrics(t *testing.T) {
	build := func(workers int) map[string]float64 {
		cfg := detCfg(workers)
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := cfg.AttackCorpus(24); err != nil {
			t.Fatal(err)
		}
		return cfg.Metrics.Values()
	}
	m1, m4 := build(1), build(4)
	for _, name := range []string{"blocks.compiled", "blocks.hits", "blocks.invalidations"} {
		if m1[name] != m4[name] {
			t.Errorf("%s differs between Workers=1 (%g) and Workers=4 (%g)", name, m1[name], m4[name])
		}
	}
	if m1["blocks.compiled"] == 0 || m1["blocks.hits"] == 0 {
		t.Errorf("block tier did not engage: compiled=%g hits=%g", m1["blocks.compiled"], m1["blocks.hits"])
	}
}

// TestDeterminismCampaign covers the stateful Fig. 5 path: the fan-out
// inside each attempt must not leak scheduling order into detector
// state.
func TestDeterminismCampaign(t *testing.T) {
	run := func(workers int) *CampaignResult {
		cfg := detCfg(workers)
		cfg.Attempts = 2
		cfg.SamplesPerClass = 60
		cfg.Classifiers = []string{"lr"}
		res, err := Fig5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if !reflect.DeepEqual(r1.Plain, r4.Plain) {
		t.Error("campaign plain panel differs between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(r1.CR, r4.CR) {
		t.Error("campaign CR panel differs between Workers=1 and Workers=4")
	}
	r4b := run(4)
	if !reflect.DeepEqual(r4.CR, r4b.CR) {
		t.Error("two Workers=4 campaigns with the same seed differ")
	}
}

// TestDeterminismOnlineCampaign covers the online Fig. 6 path with every
// classifier family: the detectors train, score, retrain on the growing
// corpus and mutate their variants concurrently, and none of that may
// depend on the worker count.
func TestDeterminismOnlineCampaign(t *testing.T) {
	run := func(workers int) *CampaignResult {
		cfg := detCfg(workers)
		// Three attempts: every CR detector catches attempt 2, so
		// attempt 3 runs the variants its mutation produced.
		cfg.Attempts = 3
		cfg.Classifiers = []string{"mlp", "nn", "lr", "svm"}
		res, err := Fig6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if len(r1.Plain) != 12 || len(r1.CR) != 12 {
		t.Fatalf("got %d plain and %d CR points, want 12 each", len(r1.Plain), len(r1.CR))
	}
	if !reflect.DeepEqual(r1.Plain, r4.Plain) {
		t.Errorf("online plain panel differs between Workers=1 and Workers=4:\n%v\nvs\n%v", r1.Plain, r4.Plain)
	}
	if !reflect.DeepEqual(r1.CR, r4.CR) {
		t.Errorf("online CR panel differs between Workers=1 and Workers=4:\n%v\nvs\n%v", r1.CR, r4.CR)
	}
	r4b := run(4)
	if !reflect.DeepEqual(r4.Plain, r4b.Plain) || !reflect.DeepEqual(r4.CR, r4b.CR) {
		t.Error("two Workers=4 online campaigns with the same seed differ")
	}
}
