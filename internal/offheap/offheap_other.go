//go:build !unix

package offheap

// Without mmap the memory is an ordinary heap allocation, which the
// collector counts; it still holds no pointers, so it is never scanned.
func Map(size int) []byte { return make([]byte, size) }

func Unmap([]byte) {}
