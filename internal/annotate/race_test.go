//go:build race

package annotate

// raceEnabled reports whether the race detector is on. It slows the
// serial oracle, whose cost grows with mentions × page length, ~6×.
const raceEnabled = true
