package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// pooledRun is one run kind at fixed inputs. It returns the run's
// result with nothing that points into the machine.
type pooledRun struct {
	name string
	run  func(cfg Config, m *vm.Machine) (any, error)
}

// pooledRuns covers every run kind the campaign pools run: benign hosts,
// each standalone variant, CR-Spectre with and without perturbation, and
// Table I's bare original and perturbed cells.
func pooledRuns(t *testing.T) []pooledRun {
	host, err := mibench.ByName("math")
	if err != nil {
		t.Fatal(err)
	}
	pp := perturb.Paper()
	cells := table1Cells()
	runs := []pooledRun{
		{"benign math", func(cfg Config, m *vm.Machine) (any, error) {
			return cfg.benignRun(m, mibench.Math(300), 3, new([]pmu.Sample))
		}},
		{"benign sha_1", func(cfg Config, m *vm.Machine) (any, error) {
			return cfg.benignRun(m, mibench.SHA1(20), 4, new([]pmu.Sample))
		}},
		{"cr plain", func(cfg Config, m *vm.Machine) (any, error) {
			return crValue(cfg.crRun(m, host, AttackSpec{Variant: spectre.V1BoundsCheck}, 9, new([]pmu.Sample)))
		}},
		{"cr perturbed", func(cfg Config, m *vm.Machine) (any, error) {
			return crValue(cfg.crRun(m, host, AttackSpec{Variant: spectre.VRSB, Perturb: &pp, ProbeDelay: 90}, 10, new([]pmu.Sample)))
		}},
		{"table1 original", func(cfg Config, m *vm.Machine) (any, error) {
			return cfg.table1Run(m, mibench.Math(300), cells[0].spec, 11)
		}},
		{"table1 online", func(cfg Config, m *vm.Machine) (any, error) {
			return cfg.table1Run(m, host, cells[3].spec, 12)
		}},
	}
	for i, v := range spectre.Variants() {
		runs = append(runs, pooledRun{"standalone " + v.String(), func(cfg Config, m *vm.Machine) (any, error) {
			return cfg.standaloneRun(m, AttackSpec{Variant: v}, int64(20+i), new([]pmu.Sample))
		}})
	}
	return runs
}

// crValue drops the machine from a CR result, keeping what it copied out.
func crValue(cr *CRResult, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	v := *cr
	v.Machine = nil
	return v, nil
}

// record renders a run's result and everything its finished machine
// shows a caller: core counters and registers, block statistics, IPC,
// output, exit state and exec log. Floats print in their shortest
// round-trip form, so equal records mean bit-equal values.
func record(r pooledRun, cfg Config, m *vm.Machine) (string, error) {
	v, err := r.run(cfg, m)
	if err != nil {
		return "", fmt.Errorf("%s: %w", r.name, err)
	}
	c := m.CPU
	return fmt.Sprintf("%+v\nsnapshot %+v\nblocks %+v\nipc %v pc %#x regs %v\nout %q exit %d aborted %t exec %q",
		v, c.Snapshot(), c.BlockStats(), c.IPC(), c.PC, c.Regs, m.Output.String(), m.ExitCode, m.Aborted, m.ExecLog), nil
}

// firstDiff names the first line where the records a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n%s\nwant\n%s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(al), len(bl))
}

// TestPooledRunsMatchFresh fills the process's machine pool with
// machines last used by defense.Evaluate under every defense.Matrix row,
// from concurrent callers, and by a run observed through its own
// recorder. Every run kind then runs twice, in reverse order, on pooled
// machines from four workers, and must leave exactly what the same run
// leaves on a fresh machine; the earlier recorder must count nothing
// more. Under -race the pool drops about a quarter of its Puts, so both
// paths run.
func TestPooledRunsMatchFresh(t *testing.T) {
	cfg := testConfig()
	runs := pooledRuns(t)
	want := make([]string, len(runs))
	for i, r := range runs {
		var err error
		if want[i], err = record(r, cfg, new(vm.Machine)); err != nil {
			t.Fatal(err)
		}
	}

	const seed = 11
	rows, err := defense.Matrix(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Map(context.Background(), len(rows), len(rows), func(_ context.Context, i int) (defense.Outcome, error) {
		return defense.Evaluate(rows[i].Posture, rows[i].Attacker, seed)
	}); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	observed := cfg
	observed.Telemetry = rec
	m := vm.Get()
	if _, err := record(runs[3], observed, m); err != nil {
		t.Fatal(err)
	}
	vm.Put(m)
	counts := rec.Counts()

	cfg.Workers = 4
	n := len(runs)
	got, err := mapMachines(cfg, "pooled-runs", 2*n, func(_ context.Context, m *vm.Machine, task int) (string, error) {
		return record(runs[n-1-task%n], cfg, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, g := range got {
		if k := n - 1 - task%n; g != want[k] {
			t.Errorf("%s on a pooled machine differs from a fresh one: %s", runs[k].name, firstDiff(g, want[k]))
		}
	}
	if after := rec.Counts(); !reflect.DeepEqual(after, counts) {
		t.Errorf("a recorder counted events after its run returned:\nthen %v\nnow  %v", counts, after)
	}
}

// TestCorpusReuseAllocs bounds what a corpus pass allocates once the
// machine and sample pools hold what it used: its run resets a machine
// in place rather than backing a new one's pages, page tables, caches,
// predecode tables and branch units, and samples into a kept buffer's
// rows rather than new vectors.
func TestCorpusReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops about a quarter of its Puts")
	}
	const bound = 24 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig()
	cfg.Workers = 1
	workloads := []mibench.Workload{mibench.Math(300)}
	if _, err := cfg.BenignCorpus(workloads, 8); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cfg.BenignCorpus(workloads, 8); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= bound {
		t.Errorf("a corpus pass allocates %d bytes, want under %d", got, bound)
	}
	t.Logf("per corpus pass: %d bytes, %d objects", got, after.Mallocs-before.Mallocs)
}

// scratchOutputs is what TestScratchRunsMatchFresh compares: a
// test-scale online campaign, a benign corpus and a CR run.
type scratchOutputs struct {
	fig6   *CampaignResult
	corpus *trace.Set
	cr     CRResult
}

// poisonScratch fills the sample and noisy-row pools with buffers whose
// rows hold NaN, narrower than, as wide as and wider than a sample, and
// evalMix's generator pool with generators off their seed's stream.
func poisonScratch() {
	nan := math.NaN()
	for range 8 {
		rows := make([]pmu.Sample, 64)
		for i := range rows {
			rows[i] = make(pmu.Sample, []int{3, int(pmu.NumEvents), 2 * int(pmu.NumEvents)}[i%3])
			for j := range rows[i] {
				rows[i][j] = nan
			}
		}
		noisy := trace.NewSet(pmu.AllEvents())
		noisy.AddNoisy("poison", trace.LabelBenign, rows, 0, 0)
		putSamples(&rows)
		noisySets.Put(noisy)
		rng := rand.New(rand.NewSource(-1))
		rng.Int63()
		mixRands.Put(rng)
	}
}

// TestScratchRunsMatchFresh is the scratch rule's identity gate. It
// takes reference outputs with the process's pools empty, as a new
// process starts (two collections empty every sync.Pool), then fills
// the scratch pools with NaN rows and runs the same work again: a
// test-scale Fig. 6 campaign, a benign corpus and RunCR. Each must equal
// its reference, so no stale row or generator state reaches an output;
// and the CR run's Samples, which RunCR hands its caller, must survive
// the pooled runs after it unchanged.
func TestScratchRunsMatchFresh(t *testing.T) {
	cfg := testConfig()
	cfg.SamplesPerClass = 24
	cfg.Attempts = 2
	cfg.Workers = 4
	host, err := mibench.ByName("math")
	if err != nil {
		t.Fatal(err)
	}
	pp := perturb.Paper()
	spec := AttackSpec{Variant: spectre.V1BoundsCheck, Perturb: &pp, ProbeDelay: 90}
	runCR := func() CRResult {
		cr, err := RunCR(cfg, host, spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		v := *cr
		v.Machine = nil
		return v
	}
	pooled := func(out *scratchOutputs) {
		var err error
		if out.fig6, err = Fig6(cfg); err != nil {
			t.Fatal(err)
		}
		if out.corpus, err = cfg.BenignCorpus([]mibench.Workload{mibench.Math(300), mibench.SHA1(20)}, 16); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	runtime.GC()
	var want scratchOutputs
	want.cr = runCR()
	pooled(&want)

	poisonScratch()
	var got scratchOutputs
	got.cr = runCR()
	kept := make([]pmu.Sample, len(got.cr.Samples))
	for i, s := range got.cr.Samples {
		kept[i] = slices.Clone(s)
	}
	poisonScratch()
	pooled(&got)

	if !reflect.DeepEqual(got.fig6, want.fig6) {
		t.Errorf("Fig6 on poisoned scratch differs from a fresh process's:\n%+v\nwant\n%+v", got.fig6, want.fig6)
	}
	if !reflect.DeepEqual(got.corpus, want.corpus) {
		t.Error("BenignCorpus on poisoned scratch differs from a fresh process's")
	}
	if !reflect.DeepEqual(got.cr, want.cr) {
		t.Errorf("RunCR on poisoned scratch differs from a fresh process's:\n%+v\nwant\n%+v", got.cr, want.cr)
	}
	if !reflect.DeepEqual(got.cr.Samples, kept) {
		t.Error("RunCR's samples changed under the pooled runs after it")
	}
}
