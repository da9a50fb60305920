//go:build race

package automata

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of what is put back, so allocation
// counts of pooled paths mean nothing.
const raceEnabled = true
