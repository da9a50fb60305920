//go:build race

package service

// raceEnabled reports whether the race detector is on. It slows JSON
// decoding about tenfold.
const raceEnabled = true
