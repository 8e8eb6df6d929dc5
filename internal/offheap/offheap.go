// Package offheap maps memory the Go collector neither scans nor counts
// towards its heap goal, which by default lets the heap grow to twice what is
// live: a byte kept here costs one byte, not two. The cache's body arena and
// the segment log's index keep their long-lived bytes in it. Memory from Map
// must hold no Go pointers and must not be used after Unmap.
package offheap
