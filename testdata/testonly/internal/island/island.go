// Package island is imported by nothing.
package island

// Render is called by nothing, but its package has an allowlist line.
func Render() {}
