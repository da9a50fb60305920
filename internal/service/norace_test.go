//go:build !race

package service

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
