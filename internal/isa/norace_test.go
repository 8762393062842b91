//go:build !race

package isa

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
