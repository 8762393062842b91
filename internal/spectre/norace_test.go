//go:build !race

package spectre

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
