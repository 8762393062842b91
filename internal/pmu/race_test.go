//go:build race

package pmu

// raceEnabled reports a -race build, whose instrumentation allocates, so
// an allocation bound cannot hold.
const raceEnabled = true
