//go:build race

package progen

// raceEnabled reports a -race build. There sync.Pool drops about a
// quarter of its Puts, so an allocation count on pooled generators
// cannot hold.
const raceEnabled = true
