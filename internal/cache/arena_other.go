//go:build !unix

package cache

// Without mmap a chunk is an ordinary heap allocation: bodies still share
// chunks by size class, but the collector counts them.
func mapChunk(size int) []byte { return make([]byte, size) }

func unmapChunk([]byte) {}
