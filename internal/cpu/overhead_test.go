package cpu_test

import (
	"testing"
	"time"

	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// BenchmarkRecorderOverhead runs one fixed MiBench host per iteration
// twice, bare and with a recorder that counts retirements without
// storing them (the configuration of daemon jobs and of the CLIs'
// -trace and -manifest runs), and reports the observed run's time over
// the bare run's: the unit-test counterpart of bench's
// telemetry.recorder_overhead_ratio.
func BenchmarkRecorderOverhead(b *testing.B) {
	mod, err := mibench.Bitcount("bench", 20_000).HostModule(rop.HostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(rec *telemetry.Recorder) time.Duration {
		cfg := vm.DefaultConfig()
		cfg.Telemetry = rec
		m := vm.New(cfg)
		m.Register("w", mod, 0x100000)
		start := time.Now()
		if err := m.Exec("w", []byte("x"), 1<<32); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var bare, observed time.Duration
	for i := 0; i < b.N; i++ {
		bare += run(nil)
		rec := telemetry.NewRecorder(0)
		rec.Exclude(telemetry.KindRetire)
		observed += run(rec)
	}
	b.ReportMetric(float64(observed)/float64(bare), "overhead_ratio")
}
