//go:build !race

package pmu

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
