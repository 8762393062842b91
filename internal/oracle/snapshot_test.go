package oracle

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
)

// TestSnapshotDiffEveryField holds the tier contract to every counter:
// for each cpu.Snapshot field, found here by reflection, a pair of
// snapshots that differ only there yields exactly that field's reason.
func TestSnapshotDiffEveryField(t *testing.T) {
	typ := reflect.TypeOf(cpu.Snapshot{})
	for i := range typ.NumField() {
		var a, b cpu.Snapshot
		va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
		for j := range typ.NumField() {
			va.Field(j).SetUint(uint64(j + 1))
			vb.Field(j).SetUint(uint64(j + 1))
		}
		vb.Field(i).SetUint(uint64(1000 + i))
		name := typ.Field(i).Name
		want := fmt.Sprintf("pmu %s: blocks=%d single-step=%d", name, i+1, 1000+i)
		if got := snapshotDiff(a, b); len(got) != 1 || got[0] != want {
			t.Errorf("%s: snapshotDiff = %q, want [%q]", name, got, want)
		}
	}
	if got := snapshotDiff(cpu.Snapshot{}, cpu.Snapshot{}); len(got) != 0 {
		t.Errorf("equal snapshots: snapshotDiff = %q, want none", got)
	}
}
