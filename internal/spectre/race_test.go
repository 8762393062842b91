//go:build race

package spectre

// raceEnabled reports a -race build, whose instrumented code allocates
// differently.
const raceEnabled = true
