//go:build race

package simm

func init() { raceEnabled = true }
