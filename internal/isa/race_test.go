//go:build race

package isa

// raceEnabled reports a -race build. There the compiler keeps the
// temporary that slices.Grow appends, so a grow allocates twice its size.
const raceEnabled = true
