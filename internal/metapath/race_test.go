//go:build race

package metapath

// raceEnabled reports whether the race detector is on. sync.Pool drops
// items at random under it, so pooled paths allocate unpredictably.
const raceEnabled = true
