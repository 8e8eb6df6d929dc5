package store

import (
	"unsafe"

	"nakika/internal/offheap"
)

// segIndex is a SegLog's index: an open-addressing table of fixed-size slots
// keyed by the owner's 64-bit hash of a record's key, probed linearly and
// compacted by backward shifts on delete, so it needs no tombstones. A slot
// holds no pointer and no key, so the table lives in memory from
// offheap.Map, which the collector neither scans nor counts; it doubles at
// three quarters full and never shrinks. A slot with n == 0 is empty (a
// record is at least its frame header), so a fresh mapping is an empty table.
type segIndex struct {
	mem   []byte
	slots []indexSlot // len(mem)/indexSlotSize, a power of two; nil until the first put
	count int
}

// indexSlot is one indexed record: where it lies, its owner's word and its
// frame header.
type indexSlot struct {
	hash   uint64
	seg    uint64 // the segment's number, from its file name
	off, n uint32
	word   int64
	head   [FrameHeader]byte
}

const (
	indexSlotSize = int(unsafe.Sizeof(indexSlot{}))
	minIndexSlots = 128
)

// get returns the slot filed under h.
func (x *segIndex) get(h uint64) (indexSlot, bool) {
	if i, ok := x.find(h); ok {
		return x.slots[i], true
	}
	return indexSlot{}, false
}

// find returns the position of h's slot, or ok=false.
func (x *segIndex) find(h uint64) (int, bool) {
	if x.slots == nil {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.n == 0 {
			return 0, false
		}
		if s.hash == h {
			return int(i), true
		}
	}
}

// put files s under s.hash, replacing the slot already there. It reports
// false, and files nothing, when the table must grow and no memory can be
// mapped.
func (x *segIndex) put(s indexSlot) bool {
	if i, ok := x.find(s.hash); ok {
		x.slots[i] = s
		return true
	}
	if (x.count+1)*4 > len(x.slots)*3 && !x.grow() {
		return false
	}
	x.insert(s)
	x.count++
	return true
}

// insert places s in the first empty slot of its probe sequence.
func (x *segIndex) insert(s indexSlot) {
	mask := uint64(len(x.slots) - 1)
	i := s.hash & mask
	for x.slots[i].n != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// del removes h's slot and returns it. Every later slot of the run that
// could have been filed at the hole moves back into it, so each slot stays
// reachable from its home without tombstones.
func (x *segIndex) del(h uint64) (indexSlot, bool) {
	i, ok := x.find(h)
	if !ok {
		return indexSlot{}, false
	}
	gone := x.slots[i]
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].n != 0; j = (j + 1) & mask {
		// j's slot moves when the hole at i lies between its home and j.
		if home := int(x.slots[j].hash) & mask; (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.count--
	return gone, true
}

// grow moves the table into one twice as large (minIndexSlots at first).
func (x *segIndex) grow() bool {
	n := max(2*len(x.slots), minIndexSlots)
	mem := offheap.Map(n * indexSlotSize)
	if mem == nil {
		return false
	}
	old, oldMem := x.slots, x.mem
	x.mem = mem
	x.slots = unsafe.Slice((*indexSlot)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	for _, s := range old {
		if s.n != 0 {
			x.insert(s)
		}
	}
	offheap.Unmap(oldMem)
	return true
}

// each calls f with every filled slot.
func (x *segIndex) each(f func(s indexSlot)) {
	for _, s := range x.slots {
		if s.n != 0 {
			f(s)
		}
	}
}

// bytes is the memory the table maps.
func (x *segIndex) bytes() int64 { return int64(len(x.mem)) }

// free unmaps the table; the index is empty afterwards.
func (x *segIndex) free() {
	offheap.Unmap(x.mem)
	*x = segIndex{}
}
