//go:build race

package qpi

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
