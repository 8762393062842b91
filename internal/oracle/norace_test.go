//go:build !race

package oracle

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
