//go:build !race

package metapath

const raceEnabled = false
