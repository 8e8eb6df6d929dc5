//go:build race

package bench

// Under the race detector sync.Pool drops a quarter of what is Put into it
// on purpose, so the warm hit reallocates pooled objects and its
// allocation ceilings do not apply.
func init() { raceEnabled = true }
