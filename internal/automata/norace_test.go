//go:build !race

package automata

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
