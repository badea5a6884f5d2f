//go:build race

package exec

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
