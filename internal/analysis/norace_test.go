//go:build !race

package analysis

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
