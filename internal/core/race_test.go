//go:build race

package core

// raceEnabled reports a -race build, whose instrumented code allocates
// where the plain build does not, so allocation budgets do not hold.
const raceEnabled = true
