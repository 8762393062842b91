package experiments

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/trace"
	"repro/internal/vm"
)

// newTestSet builds a uniform labelled set for mixing tests.
func newTestSet(n, label int) *trace.Set {
	s := trace.NewSet(pmu.Features(4))
	samples := make([]pmu.Sample, n)
	for i := range samples {
		samples[i] = pmu.Sample{float64(i), 1, 2, 3}
	}
	s.Add("test", label, samples)
	return s
}

// testConfig is a deterministic, CI-sized configuration. The assertions
// below check result *shapes* (orderings, thresholds, trends) rather
// than exact values, but with a fixed seed the whole pipeline is
// reproducible bit-for-bit.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SamplesPerClass = 100
	cfg.Attempts = 4
	cfg.Secret = "SECR3T"
	cfg.Classifiers = []string{"lr", "svm"}
	cfg.Interval = 10_000
	return cfg
}

func TestCorporaLabelsAndSizes(t *testing.T) {
	cfg := testConfig()
	b, err := cfg.BenignCorpus(mibench.Backgrounds(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() < 40 {
		t.Fatalf("benign corpus too small: %d", b.Len())
	}
	for _, y := range b.Data.Y {
		if y != 0 {
			t.Fatal("benign corpus contains attack labels")
		}
	}
	a, err := cfg.AttackCorpus(60)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() < 40 {
		t.Fatalf("attack corpus too small: %d", a.Len())
	}
	for _, y := range a.Data.Y {
		if y != 1 {
			t.Fatal("attack corpus contains benign labels")
		}
	}
	// Per-app quotas keep any one app from flooding the class.
	counts := map[string]int{}
	for _, app := range b.Apps {
		counts[app]++
	}
	for app, c := range counts {
		if c > 40 {
			t.Errorf("app %s flooded the benign corpus with %d samples", app, c)
		}
	}
}

func TestStandaloneRunLeaksSecret(t *testing.T) {
	cfg := testConfig()
	var m vm.Machine // one machine, reset by every variant's run
	for _, v := range spectre.Variants() {
		if _, err := cfg.standaloneRun(&m, AttackSpec{Variant: v}, 5); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if got := m.Output.String(); got != cfg.Secret {
			t.Errorf("%s recovered %q, want %q", v, got, cfg.Secret)
		}
	}
}

func TestCRRunFullChain(t *testing.T) {
	cfg := testConfig()
	host, err := mibench.ByName("math")
	if err != nil {
		t.Fatal(err)
	}
	pp := perturb.Paper()
	cr, err := cfg.crRun(new(vm.Machine), host, AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &pp}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Injected {
		t.Fatal("ROP chain did not exec the attack binary")
	}
	if cr.Recovered != cfg.Secret {
		t.Errorf("recovered %q, want %q", cr.Recovered, cfg.Secret)
	}
	// The attack resumed the host workload: the host's checksum output
	// follows the leaked secret bytes.
	out := cr.Machine.Output.String()
	if !strings.HasPrefix(out, cfg.Secret) || !strings.HasSuffix(out, host.Expected()) {
		t.Errorf("combined output %q missing secret prefix or workload checksum %q", out, host.Expected())
	}
	if len(cr.Samples) == 0 {
		t.Error("no samples collected during CR run")
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 80
	rows, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig4FeatureSizes)*len(Fig4Hosts()) {
		t.Fatalf("got %d rows", len(rows))
	}
	accAt := func(size int) float64 {
		var s float64
		n := 0
		for _, r := range rows {
			if r.FeatureSize == size {
				s += r.Accuracy
				n++
			}
		}
		return s / float64(n)
	}
	// Paper shape: >=4 features comfortably above the 80% detection
	// bar; a single feature is the worst configuration.
	if a := accAt(4); a < 0.85 {
		t.Errorf("4-feature mean accuracy %.3f, want >= 0.85", a)
	}
	if a := accAt(16); a < 0.85 {
		t.Errorf("16-feature mean accuracy %.3f, want >= 0.85", a)
	}
	if accAt(1) >= accAt(16) {
		t.Errorf("single feature (%.3f) not worse than 16 features (%.3f)", accAt(1), accAt(16))
	}
	var buf bytes.Buffer
	RenderFig4(&buf, rows)
	if !strings.Contains(buf.String(), "feature size") {
		t.Error("render missing header")
	}
	buf.Reset()
	Fig4CSV(&buf, rows)
	if !strings.Contains(buf.String(), "host,feature_size,accuracy") {
		t.Error("CSV missing header")
	}
}

func TestFig5OfflineShape(t *testing.T) {
	cfg := testConfig()
	res, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Online {
		t.Fatal("Fig5 must be offline")
	}
	if n := len(res.Plain); n != cfg.Attempts*len(cfg.Classifiers) {
		t.Fatalf("plain panel has %d points", n)
	}
	// Panel (a): plain Spectre stays reliably detected.
	if m := MeanAccuracy(res.Plain); m < 0.85 {
		t.Errorf("plain Spectre mean accuracy %.3f, want >= 0.85", m)
	}
	// Panel (b): CR-Spectre degrades the static detector well below the
	// evasion threshold.
	if m := MeanAccuracy(res.CR); m >= MeanAccuracy(res.Plain) {
		t.Errorf("CR mean %.3f not below plain mean %.3f", m, MeanAccuracy(res.Plain))
	}
	if m := MinAccuracy(res.CR); m > hid.EvadeThreshold {
		t.Errorf("CR min accuracy %.3f never crossed the %.0f%% evasion threshold", m, 100*hid.EvadeThreshold)
	}
	// Degrading trend: last attempt no better than the first.
	for _, c := range cfg.Classifiers {
		pts := Points(res.CR, c)
		if pts[len(pts)-1].Accuracy > pts[0].Accuracy+0.05 {
			t.Errorf("%s: offline CR accuracy rose from %.3f to %.3f", c, pts[0].Accuracy, pts[len(pts)-1].Accuracy)
		}
	}
	// The covert channel kept working under the cloak.
	for _, p := range res.CR {
		if !p.Recovered {
			t.Errorf("attempt %d (%s): secret not recovered", p.Attempt, p.Classifier)
		}
	}
}

func TestFig6OnlineShape(t *testing.T) {
	cfg := testConfig()
	cfg.Attempts = 5
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Online {
		t.Fatal("Fig6 must be online")
	}
	if m := MeanAccuracy(res.Plain); m < 0.85 {
		t.Errorf("plain mean %.3f, want >= 0.85", m)
	}
	// The attack evades at least once...
	if m := MinAccuracy(res.CR); m > hid.EvadeThreshold {
		t.Errorf("online CR min %.3f never evaded", m)
	}
	// ...and the retraining HID recovers at least once (the sawtooth).
	recovered := false
	for _, p := range res.CR {
		if p.Attempt > 1 && p.Accuracy > hid.DetectThreshold {
			recovered = true
		}
	}
	if !recovered {
		t.Error("online HID never recovered above the detection threshold")
	}
	var buf bytes.Buffer
	RenderCampaign(&buf, res, cfg.Classifiers)
	for _, want := range []string{"online-type HID", "CR-Spectre", "min"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
	buf.Reset()
	CampaignCSV(&buf, res)
	if !strings.Contains(buf.String(), "panel,classifier,attempt") {
		t.Error("campaign CSV missing header")
	}
}

func TestTable1Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 2
	// CI-sized hosts that still dominate the injected attack.
	workloads := []mibench.Workload{
		mibench.Math(2_000),
		mibench.Bitcount("bitcount_50M", 25_000),
		mibench.SHA1(150),
	}
	rows, err := Table1For(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.IPCOriginal <= 0 || r.IPCOffline <= 0 || r.IPCOnline <= 0 {
			t.Errorf("%s: non-positive IPC: %+v", r.Benchmark, r)
		}
		// Perturbation overhead stays small relative to the injected
		// plain-Spectre baseline (paper: 0.6% / 1.1% on average).
		if r.OverheadOffline > 0.10 || r.OverheadOffline < -0.10 {
			t.Errorf("%s: offline overhead %.3f out of band", r.Benchmark, r.OverheadOffline)
		}
		if r.OverheadOnline > 0.15 || r.OverheadOnline < -0.15 {
			t.Errorf("%s: online overhead %.3f out of band", r.Benchmark, r.OverheadOnline)
		}
	}
	off, on := MeanOverheads(rows)
	if off > 0.08 || on > 0.12 {
		t.Errorf("mean overheads %.3f/%.3f larger than the paper's regime", off, on)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Benchmark") {
		t.Error("table render missing header")
	}
	buf.Reset()
	Table1CSV(&buf, rows)
	if !strings.Contains(buf.String(), "benchmark,ipc_original") {
		t.Error("table CSV missing header")
	}
}

// TestTable1Allocs bounds what a Table I pass allocates once its hosts
// are assembled: every run is bare (no sample vectors) on a reset
// machine from the pool (no fresh memory, caches or predictors per run).
func TestTable1Allocs(t *testing.T) {
	const bound = 3 << 20
	cfg := detCfg(1)
	cfg.Reps = 2
	workloads := []mibench.Workload{mibench.Math(2_000), mibench.SHA1(150)}
	if _, err := Table1For(cfg, workloads); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Table1For(cfg, workloads); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= bound {
		t.Errorf("a Table I pass allocates %d bytes, want under %d", got, bound)
	}
	t.Logf("per Table I pass: %d bytes, %d objects", got, after.Mallocs-before.Mallocs)
}

// TestEmptySecretIsAnError: with no secret the host carries no __secret
// for the attack binary to aim at. The CR flow reports that as an error
// naming the host, from RunCR and from Table I's pool alike.
func TestEmptySecretIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Secret = ""
	host := mibench.Math(50)
	_, err := RunCR(cfg, host, AttackSpec{Variant: spectre.V1BoundsCheck}, 1)
	if err == nil || !strings.Contains(err.Error(), host.Name) {
		t.Errorf("RunCR: err = %v, want an error naming %s", err, host.Name)
	}
	_, err = Table1For(cfg, []mibench.Workload{host})
	var panicked *sched.PanicError
	if err == nil || errors.As(err, &panicked) || !strings.Contains(err.Error(), "table1 math baseline") {
		t.Errorf("Table1For: err = %v, want the baseline cell's error", err)
	}
}

func TestSubsample(t *testing.T) {
	in := make([]pmu.Sample, 100)
	for i := range in {
		in[i] = pmu.Sample{float64(i)}
	}
	out := subsample(in, 10)
	if len(out) != 10 {
		t.Fatalf("got %d", len(out))
	}
	if out[0][0] != 0 || out[9][0] < 80 {
		t.Errorf("subsample not spread: first=%v last=%v", out[0][0], out[9][0])
	}
	if got := subsample(in, 200); len(got) != 100 {
		t.Error("oversized request should return all")
	}
	if got := subsample(in, 0); got != nil {
		t.Error("zero request should return nil")
	}
}

func TestEvalMixRatio(t *testing.T) {
	cfg := testConfig()
	attack := newTestSet(40, 1)
	benign := newTestSet(100, 0)
	mix := cfg.evalMix(attack, benign, 3)
	nAttack, nBenign := 0, 0
	for _, y := range mix.Data.Y {
		if y == 1 {
			nAttack++
		} else {
			nBenign++
		}
	}
	if nAttack != 40 {
		t.Errorf("attack rows %d, want 40", nAttack)
	}
	if nBenign != 10 {
		t.Errorf("benign rows %d, want 10 (4:1 mix)", nBenign)
	}
}

func TestDetectionLatency(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 80
	rows := rowsAtWorkers(t, cfg, func(cfg Config) ([]LatencyRow, error) { return DetectionLatency(cfg, 5) })
	if len(rows) != len(cfg.Classifiers) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Trajectory) == 0 {
			t.Errorf("%s: empty trajectory", r.Classifier)
		}
		// The fresh variant must not be instantly detected (round 1
		// under the detection threshold) — otherwise there is no
		// latency to measure and the premise is broken.
		if r.Trajectory[0] > 0.8 {
			t.Errorf("%s: fresh variant detected immediately (%.2f)", r.Classifier, r.Trajectory[0])
		}
		if r.BatchesToDetect == 0 {
			t.Errorf("%s: zero is not a valid detection round", r.Classifier)
		}
		if r.BatchesToDetect > 0 {
			last := r.Trajectory[len(r.Trajectory)-1]
			if last <= 0.8 {
				t.Errorf("%s: claims detection at %d but last accuracy %.2f", r.Classifier, r.BatchesToDetect, last)
			}
		}
	}
	var buf bytes.Buffer
	RenderLatency(&buf, rows)
	if !strings.Contains(buf.String(), "batches to detect") {
		t.Error("render missing header")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Attempts = 2
	cfg.SamplesPerClass = 60
	cfg.Classifiers = []string{"lr"}
	a, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CR {
		if a.CR[i].Accuracy != b.CR[i].Accuracy {
			t.Fatalf("run diverged at point %d: %v vs %v", i, a.CR[i].Accuracy, b.CR[i].Accuracy)
		}
	}
	for i := range a.Plain {
		if a.Plain[i].Accuracy != b.Plain[i].Accuracy {
			t.Fatalf("plain diverged at %d", i)
		}
	}
}

func TestVariantRecycling(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 120
	rows := rowsAtWorkers(t, cfg, func(cfg Config) ([]RecycleRow, error) { return VariantRecycling(cfg, 500) })
	if len(rows) < 4 {
		t.Fatalf("only %d phases", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Phase != "A first strike" || first.Verdict != hid.VerdictEvaded {
		t.Errorf("fresh variant not evading: %+v", first)
	}
	// The detector must have caught A at some point in phase 1.
	caught := false
	for _, r := range rows[:len(rows)-2] {
		if r.Verdict == hid.VerdictDetected {
			caught = true
		}
	}
	if !caught {
		t.Error("windowed HID never caught variant A")
	}
	if last.Phase != "A recycled" {
		t.Fatalf("last phase = %q", last.Phase)
	}
	if last.Accuracy > hid.EvadeThreshold {
		t.Errorf("recycled variant detected at %.2f; forgetting not demonstrated", last.Accuracy)
	}
	var buf bytes.Buffer
	RenderRecycling(&buf, rows)
	if !strings.Contains(buf.String(), "A recycled") {
		t.Error("render missing phases")
	}
}

func TestRunLevelDetection(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 150
	rows := rowsAtWorkers(t, cfg, func(cfg Config) ([]AlarmRow, error) { return RunLevelDetection(cfg, nil, 4) })
	byPolicy := map[string]AlarmRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	any := byPolicy["any-sample"]
	perRun := byPolicy["3-per-run"]
	if any.CRDetected != any.CRRuns {
		t.Errorf("any-sample missed CR runs: %+v", any)
	}
	// The headline: a modest per-run count threshold keeps full CR
	// detection while cutting benign false alarms relative to the
	// any-sample rule.
	if perRun.CRDetected != perRun.CRRuns {
		t.Errorf("3-per-run missed CR runs: %+v", perRun)
	}
	if perRun.BenignAlarms > any.BenignAlarms {
		t.Errorf("3-per-run (%d FPs) worse than any-sample (%d FPs)", perRun.BenignAlarms, any.BenignAlarms)
	}
	var buf bytes.Buffer
	RenderAlarms(&buf, rows)
	if !strings.Contains(buf.String(), "policy") {
		t.Error("render missing header")
	}
}

func TestAlarmPolicyFires(t *testing.T) {
	seq := []int{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1}
	cases := []struct {
		p    AlarmPolicy
		want bool
	}{
		{AlarmPolicy{1, 1}, true},
		{AlarmPolicy{2, 3}, true},  // positions 10 and 12 are within 3
		{AlarmPolicy{2, 2}, false}, // never adjacent
		{AlarmPolicy{3, 0}, true},  // 3 in the whole run
		{AlarmPolicy{4, 0}, false},
	}
	for _, tc := range cases {
		if got := tc.p.Fires(seq); got != tc.want {
			t.Errorf("%s fires = %v, want %v", tc.p, got, tc.want)
		}
	}
	if (AlarmPolicy{K: 1, W: 1}).Fires([]int{0, 0, 0}) {
		t.Error("clean sequence fired")
	}
}

func TestEnsembleComparison(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 100
	rows := rowsAtWorkers(t, cfg, EnsembleComparison)
	if len(rows) != 10 { // 4 classifiers + ensemble, at 2 feature sizes
		t.Fatalf("got %d rows", len(rows))
	}
	// The diluted variant evades every pointwise detector — committee
	// included — at the paper's 4-feature operating point: the mimicry
	// is in the features, not the model.
	for _, r := range rows {
		if r.FeatureSize == 4 && r.Accuracy > hid.DetectThreshold {
			t.Errorf("%s unexpectedly detected the diluted variant pointwise (%.2f)", r.Detector, r.Accuracy)
		}
	}
	var buf bytes.Buffer
	RenderEnsemble(&buf, rows)
	if !strings.Contains(buf.String(), "ensemble") {
		t.Error("render missing ensemble row")
	}
}

// TestCRRunAllVariants: the ROP-injected flow must deliver the secret
// for every speculation primitive, not just v1.
func TestCRRunAllVariants(t *testing.T) {
	cfg := testConfig()
	host, err := mibench.ByName("math")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range spectre.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			cr, err := cfg.crRun(new(vm.Machine), host, AttackSpec{Variant: v}, 21)
			if err != nil {
				t.Fatal(err)
			}
			if !cr.Injected || cr.Recovered != cfg.Secret {
				t.Errorf("injected=%v recovered=%q", cr.Injected, cr.Recovered)
			}
		})
	}
}

// TestBenignRunNeverTriggersInjection: a benign argument through the
// full experiment machinery must never reach the EXEC syscall.
func TestBenignRunNeverTriggersInjection(t *testing.T) {
	cfg := testConfig()
	var m vm.Machine // one machine, reset by every workload's run
	for _, w := range mibench.Suite()[:2] {
		if _, err := cfg.benignRun(&m, w, 3); err != nil {
			t.Fatal(err)
		}
		if len(m.ExecLog) != 0 {
			t.Errorf("%s benign run exec'd %v", w.Name, m.ExecLog)
		}
		if !strings.HasSuffix(m.Output.String(), w.Expected()) {
			t.Errorf("%s benign output %q missing checksum", w.Name, m.Output.String())
		}
	}
}

// TestCRSamplesCarryInjectionSignature: the ROP phase's return
// mispredictions must be visible in the sampled trace (the HID-visible
// fingerprint the paper's injection leaves).
func TestCRSamplesCarryInjectionSignature(t *testing.T) {
	cfg := testConfig()
	host, err := mibench.ByName("math")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cfg.crRun(new(vm.Machine), host, AttackSpec{Variant: spectre.V1BoundsCheck}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Machine.CPU.BP.Stats.ReturnMispred < 2 {
		t.Errorf("CR run recorded only %d return mispredictions", cr.Machine.CPU.BP.Stats.ReturnMispred)
	}
}

// TestWriteCSVReportsWriteErrors: a CSV whose every write fails is an
// error, and no "wrote" line claims it.
func TestWriteCSVReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	var out strings.Builder
	err := writeCSV(&out, "/dev/full", func(w io.Writer) { Table1CSV(w, []Table1Row{{Benchmark: "math"}}) })
	if err == nil || out.Len() != 0 {
		t.Errorf("writeCSV to /dev/full = %v, stdout %q; want an error and no wrote line", err, out.String())
	}
}
