// Package lib declares one case of each rule of TestNoTestOnlySurface.
package lib

import "io"

// Used is called from cmd/app.
func Used() {}

// Unused is called by nothing: reported.
func Unused() {}

// Reader is what NewReader returns.
type Reader struct{}

// NewReader is called from cmd/app.
func NewReader() io.Reader { return Reader{} }

// Read is called by nothing here, but completes io.Reader: not reported.
func (Reader) Read(p []byte) (int, error) { return 0, io.EOF }

// BenchOnly is called only from the benchmark module: not reported.
func BenchOnly() {}

// Seam is called only by the exempt harness, and allowlisted.
func Seam() {}

// HarnessOnly is used only by the exempt harness: reported.
type HarnessOnly struct{}
