// Package core holds the fixture's Config.
package core

// Config is set by cmd/app (Set) and by a test (TestOnly).
type Config struct {
	Set      int
	TestOnly int
}
