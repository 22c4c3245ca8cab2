//go:build !race

package main

// raceEnabled reports a -race build, in which sync.Pool drops puts at
// random.
const raceEnabled = false
