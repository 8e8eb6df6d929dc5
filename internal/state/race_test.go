//go:build race

package state

// The allocation ceilings are measured without the race detector, which
// adds allocations of its own; under it they do not apply.
func init() { raceEnabled = true }
