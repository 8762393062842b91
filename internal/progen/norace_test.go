//go:build !race

package progen

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
