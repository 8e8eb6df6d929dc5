//go:build race

package core

// Under the race detector sync.Pool drops a quarter of what is Put into it
// on purpose, so pooled objects are reallocated and allocation ceilings do
// not apply.
func init() { raceEnabled = true }
