//go:build !race

package graph

// raceEnabled reports a -race build, in which sync.Pool drops puts at
// random.
const raceEnabled = false
