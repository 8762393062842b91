//go:build race

package oracle

// raceEnabled reports a -race build. There sync.Pool drops about a
// quarter of its Puts, so an allocation bound on pooled rigs cannot hold.
const raceEnabled = true
