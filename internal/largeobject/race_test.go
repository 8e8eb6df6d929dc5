//go:build race

package largeobject

// Under the race detector sync.Pool drops a quarter of what is Put into it
// on purpose, so a pooled buffer is reallocated far more often than in a
// normal build and the allocation budget does not apply.
func init() { raceEnabled = true }
