//go:build race

package script

func init() { raceEnabled = true }
