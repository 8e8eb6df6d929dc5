//go:build unix

package offheap

import "syscall"

// Map maps size bytes of zeroed anonymous memory, or returns nil when the
// system refuses.
func Map(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return mem
}

// Unmap gives a Map mapping back to the system.
func Unmap(mem []byte) {
	if mem != nil {
		// Munmap fails only for a range that is not a mapping, which mem is.
		_ = syscall.Munmap(mem)
	}
}
