//go:build unix

package cache

import "syscall"

// mapChunk maps size bytes of anonymous memory, which the collector does not
// see, or returns nil when the system refuses.
func mapChunk(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return mem
}

// unmapChunk gives a mapChunk mapping back to the system.
func unmapChunk(mem []byte) {
	if mem != nil {
		// Munmap fails only for a range that is not a mapping, which mem is.
		_ = syscall.Munmap(mem)
	}
}
