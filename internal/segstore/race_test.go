//go:build race

package segstore

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so allocation counts are not deterministic.
const raceEnabled = true
