//go:build race

package experiments

// raceEnabled reports a -race build. There sync.Pool drops about a
// quarter of its Puts, so an allocation bound on pooled machines cannot
// hold.
const raceEnabled = true
