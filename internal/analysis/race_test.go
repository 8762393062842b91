//go:build race

package analysis

// raceEnabled reports a -race build. There the instrumented build
// allocates where the plain one does not, so an allocation bound on the
// scan's reused scratch cannot hold.
const raceEnabled = true
