package cache

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"

	"nakika/internal/offheap"
)

// The memory tier keeps its keys and bodies in an arena of its own, off the
// Go heap. The collector neither scans those bytes nor counts them towards its
// heap goal, which by default lets the heap grow to twice what is live; so a
// cached byte costs one byte of memory, not two.
//
// A key or a body is kept in a slot of its size class. A class rounds a
// length up by less than an eighth (at most 16 bytes take 16). Slots are carved
// from chunks of 1 MiB, one class per chunk, or from a chunk of its own when
// the slot is larger. A chunk is mapped from the operating system
// (offheap.Map; a heap allocation where there is no mmap) and goes back as
// soon as no slot of it is in use; a released slot is reused before a new one
// is carved.
//
// No slice of the arena leaves the package. A reader copies what it keeps
// under the lock of the shard whose entry owns the slot, and a slot is
// released only after its entry has left the shard's map under that lock (an
// evicted entry's only after its disk write), so no copy reads a released
// slot.

const (
	chunkSize = 1 << 20
	minSlot   = 16
	// maxClassBits bounds the classes: 2^40 bytes is past any body a shard's
	// byte budget admits.
	maxClassBits = 40
	numClasses   = 1 + (maxClassBits-4)*8
)

// slotClass returns the class of n bytes, n > 0, and its slot size.
// Past 16 bytes a class is one of eight steps between two powers of two:
// with 2^(b-1) < n <= 2^b, n rounds up to a multiple of 2^(b-4), which is
// less than n/8.
func slotClass(n int) (class, size int) {
	if n <= minSlot {
		return 0, minSlot
	}
	b := bits.Len(uint(n - 1))
	shift := b - 4
	steps := (n + 1<<shift - 1) >> shift // 9 to 16
	return 1 + (b-5)*8 + steps - 9, steps << shift
}

// chunk is one mapping, cut into slots of one class.
type chunk struct {
	mem    []byte
	class  int
	slot   int
	carved int // bytes of mem handed out as slots at least once
	// free is one more than the offset of the first released slot, 0 for
	// none; a released slot's first four bytes hold the next one's the same
	// way.
	free       int
	used       int
	prev, next *chunk // on its class's list while it has a slot to give
	listed     bool
}

// arena is the memory tier's key and body storage. Its counters are what Stats
// reports as ArenaStats.
type arena struct {
	mu        sync.Mutex
	open      [numClasses]*chunk // per class, the chunks with a slot to give
	chunks    map[*chunk]struct{}
	carved    int64
	live      int64
	onRelease func(slot []byte) // test hook: sees each slot as it is released
}

// ArenaStats reports the memory tier's key and body storage. Carved is the
// bytes of slots ever handed out of the chunks mapped now, which is what the
// arena holds resident; Live is the bytes of the slots in use. Live less the
// cache's Bytes is the keys and what size classes round up; Carved less Live
// is released slots waiting for reuse in chunks that still hold a live one.
type ArenaStats struct {
	Carved int64
	Live   int64
	Chunks int
}

func newArena() *arena {
	a := &arena{chunks: make(map[*chunk]struct{})}
	// A cache nobody reaches any more gives its chunks back: nothing outside
	// the cache points into them.
	runtime.SetFinalizer(a, (*arena).unmapAll)
	return a
}

// alloc returns a slot for n bytes, n > 0, as the slice of its first
// n bytes and the chunk it lies in, or a nil chunk when no chunk could be
// mapped. The slice's capacity runs to the chunk's end, which is how free
// finds the slot again; nothing in the package appends to it.
func (a *arena) alloc(n int) (*chunk, []byte) {
	class, size := slotClass(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.open[class]
	if c == nil {
		mem := offheap.Map(max(chunkSize, size))
		if mem == nil {
			return nil, nil
		}
		c = &chunk{mem: mem, class: class, slot: size}
		a.chunks[c] = struct{}{}
		a.list(c)
	}
	off := c.carved
	if c.free > 0 {
		off = c.free - 1
		c.free = int(binary.LittleEndian.Uint32(c.mem[off:]))
	} else {
		c.carved += size
		a.carved += int64(size)
	}
	c.used++
	a.live += int64(size)
	if c.free == 0 && c.carved+size > len(c.mem) {
		a.unlist(c)
	}
	return c, c.mem[off : off+n]
}

// free releases the slot b was allocated as. A chunk left with no slot in
// use is unmapped.
func (a *arena) free(c *chunk, b []byte) {
	if c == nil {
		return
	}
	off := len(c.mem) - cap(b)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.onRelease != nil {
		a.onRelease(c.mem[off : off+c.slot])
	}
	c.used--
	a.live -= int64(c.slot)
	if c.used == 0 {
		a.unlist(c)
		a.carved -= int64(c.carved)
		delete(a.chunks, c)
		offheap.Unmap(c.mem)
		c.mem = nil
		return
	}
	binary.LittleEndian.PutUint32(c.mem[off:], uint32(c.free))
	c.free = off + 1
	a.list(c)
}

// release frees e's key and body slots.
func (a *arena) release(e *entry) {
	a.free(e.keyChunk, e.key())
	a.free(e.chunk, e.Body)
}

func (a *arena) list(c *chunk) {
	if c.listed {
		return
	}
	c.listed = true
	c.prev, c.next = nil, a.open[c.class]
	if c.next != nil {
		c.next.prev = c
	}
	a.open[c.class] = c
}

func (a *arena) unlist(c *chunk) {
	if !c.listed {
		return
	}
	c.listed = false
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		a.open[c.class] = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.prev, c.next = nil, nil
}

func (a *arena) stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Carved: a.carved, Live: a.live, Chunks: len(a.chunks)}
}

// unmapAll gives every chunk back; the finalizer of an arena nothing reaches.
func (a *arena) unmapAll() {
	for c := range a.chunks {
		offheap.Unmap(c.mem)
	}
}
