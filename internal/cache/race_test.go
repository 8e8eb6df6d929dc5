//go:build race

package cache

// Under the race detector sync.Pool drops a quarter of what is Put into it
// on purpose, and the detector's shadow memory follows every allocation, so
// the allocation and heap ceilings do not apply.
func init() { raceEnabled = true }
