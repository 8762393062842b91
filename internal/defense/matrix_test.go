package defense

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// TestVariantMitigationMatrix is the PR's acceptance lattice: every
// (v1, v2, v4, RSB) × (none, index-mask, SLH, retpoline, fence,
// invisispec, ssbd) cell must match the pinned ground truth — the
// unmitigated column leaks, each mitigation seals exactly its variants.
// Cells are evaluated concurrently through sched.Map; each cell builds
// its own machine, so the sweep is race-clean, and the assertions are
// on per-cell values only, so the result is worker-count-invariant.
func TestVariantMitigationMatrix(t *testing.T) {
	type task struct {
		v spectre.Variant
		m Mitigation
	}
	var tasks []task
	for _, v := range MatrixVariants() {
		for _, m := range Mitigations() {
			tasks = append(tasks, task{v, m})
		}
	}
	for _, workers := range []int{1, 4} {
		cells, err := sched.Map(context.Background(), workers, len(tasks),
			func(_ context.Context, i int) (VariantCell, error) {
				return EvaluateCell(tasks[i].v, tasks[i].m, 11)
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if !c.Agrees() {
				t.Errorf("workers=%d: %s under %s: got success=%v, ground truth %v (%s)",
					workers, c.Variant, c.Mitigation, c.Outcome.Success, c.Expected, c.Outcome.Detail)
			}
		}
	}
}

// TestMatrixGroundTruthShape pins structural properties of the expected
// table rather than individual cells: no mitigation column is useless
// (each seals at least one variant), no variant is unstoppable, and the
// unmitigated column leaks everywhere.
func TestMatrixGroundTruthShape(t *testing.T) {
	for _, v := range MatrixVariants() {
		if !ExpectedLeak(v, MitigationNone) {
			t.Errorf("%s: must leak unmitigated", v)
		}
		if ExpectedLeak(v, MitigationInvisiSpec) {
			t.Errorf("%s: InvisiSpec kills the covert channel for every variant", v)
		}
		sealed := false
		for _, m := range Mitigations() {
			if m != MitigationNone && !ExpectedLeak(v, m) {
				sealed = true
			}
		}
		if !sealed {
			t.Errorf("%s: no mitigation seals it", v)
		}
	}
	for _, m := range Mitigations() {
		if m == MitigationNone {
			continue
		}
		seals := 0
		for _, v := range MatrixVariants() {
			if !ExpectedLeak(v, m) {
				seals++
			}
		}
		if seals == 0 {
			t.Errorf("%s: seals nothing — dead matrix column", m)
		}
	}
	if len(Mitigations()) != int(numMitigations) {
		t.Fatalf("Mitigations() lists %d of %d", len(Mitigations()), numMitigations)
	}
	seen := map[string]bool{}
	for _, m := range Mitigations() {
		s := m.String()
		if seen[s] {
			t.Errorf("duplicate mitigation name %q", s)
		}
		seen[s] = true
	}
}

// TestEveryMitigationIsBypassable pins the paper's core claim at matrix
// granularity: for every single software mitigation there exists a
// variant that still leaks — the defense-aware attacker always has a
// move (full InvisiSpec being the only total seal).
func TestEveryMitigationIsBypassable(t *testing.T) {
	for _, m := range Mitigations() {
		if m == MitigationInvisiSpec {
			continue
		}
		open := false
		for _, v := range MatrixVariants() {
			if ExpectedLeak(v, m) {
				open = true
			}
		}
		if !open {
			t.Errorf("%s: claims to seal all variants — contradicts the defense-aware threat model", m)
		}
	}
}

// TestPooledEvaluateMatchesFresh runs every Matrix row and VariantMatrix
// cell through the pooled Evaluate in reverse order from four workers,
// so each machine is reset from another posture's or variant's run.
// Every Outcome must equal the same run on a fresh machine. Under -race
// the pool drops about a quarter of its Puts, so both paths run.
func TestPooledEvaluateMatchesFresh(t *testing.T) {
	const seed = 11
	type run struct {
		name string
		p    Posture
		a    Attacker
	}
	rows, err := Matrix(seed)
	if err != nil {
		t.Fatal(err)
	}
	var runs []run
	for _, r := range rows {
		runs = append(runs, run{r.Name, r.Posture, r.Attacker})
	}
	for _, v := range MatrixVariants() {
		for _, m := range Mitigations() {
			runs = append(runs, run{fmt.Sprintf("%s under %s", v, m), m.Posture(), Attacker{Variant: v}})
		}
	}
	want := make([]Outcome, len(runs))
	for i, r := range runs {
		if want[i], err = evaluate(new(vm.Machine), r.p, r.a, seed); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	n := len(runs)
	got, err := sched.Map(context.Background(), 4, n, func(_ context.Context, i int) (Outcome, error) {
		r := runs[n-1-i]
		return Evaluate(r.p, r.a, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range got {
		if k := n - 1 - i; o != want[k] {
			t.Errorf("%s: pooled machine %+v, fresh machine %+v", runs[k].name, o, want[k])
		}
	}
}
