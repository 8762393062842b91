package oracle_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/progen"
)

// BenchmarkRunProgram measures one lock-step run of a fixed generated
// program (seed 1, which halts after 163 instructions) under the default
// posture, set-up on a pooled rig included.
func BenchmarkRunProgram(b *testing.B) {
	p := progen.Generate(1, progen.DefaultOptions())
	cfg := cpu.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.RunProgram(p, cfg, testBudget, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTierDiff measures one block-tier differential run of the
// same program and posture.
func BenchmarkRunTierDiff(b *testing.B) {
	p := progen.Generate(1, progen.DefaultOptions())
	cfg := cpu.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.RunTierDiff(p, cfg, testBudget, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
