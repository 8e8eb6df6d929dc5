package largeobject

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"nakika/internal/store"
	"nakika/internal/wire"
)

// Slab stores segments in fixed-size slots, one slot per file on a store.FS
// — the translation of NDN-DPDK's fixed-size slot allocation over a block
// device to the engine's narrow filesystem surface. Slots are soft state:
// nothing is fsynced, every frame is CRC-framed, and a torn or corrupt slot
// simply fails verification and is reclaimed at the next open.
//
// Allocation is free-list first, then LRU: when every slot is occupied the
// least recently touched segment is evicted and its slot overwritten.
type Slab struct {
	fs       store.FS
	segSize  int64
	maxSlots int

	mu    sync.Mutex
	bySeg map[SegID]int // segment id -> slot ordinal
	slots []slotState   // indexed by slot ordinal
	free  []int
	tick  uint64

	hits, misses, puts, evictions uint64

	// bufs pools slot read buffers (*[]byte), each one maximal frame plus one
	// byte long: a slot file that fills the buffer is longer than any frame
	// Put writes and fails the read instead of growing it. A buffer is out
	// of the pool only while one reader holds a view of it (or the boot
	// scan is reading through it).
	bufs sync.Pool
	// onRelease, when set by a test, sees every buffer on its way back to
	// the pool.
	onRelease func(buf []byte)
}

type slotState struct {
	used bool
	// writing marks a slot whose frame is still being written outside the
	// lock; it is invisible to bySeg, skipped by allocation, and published
	// only once the write completes.
	writing bool
	id      SegID
	tick    uint64
}

var slabCRC = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderMax bounds the bytes of a slot frame ahead of the data: the
// checksum, the segment id and the longest length varint.
const frameHeaderMax = 4 + SegIDLen + binary.MaxVarintLen64

// NewSlab opens (or creates) a slab on fs with the given segment size and
// total byte capacity, rescanning any surviving slot files. Capacity is
// rounded down to whole slots, minimum one.
func NewSlab(fs store.FS, segSize, capacity int64) (*Slab, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("largeobject: segment size %d", segSize)
	}
	maxSlots := int(capacity / segSize)
	if maxSlots < 1 {
		maxSlots = 1
	}
	s := &Slab{
		fs:       fs,
		segSize:  segSize,
		maxSlots: maxSlots,
		bySeg:    make(map[SegID]int),
	}
	s.bufs.New = func() any {
		buf := make([]byte, frameHeaderMax+segSize+1)
		return &buf
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

func slotName(i int) string { return fmt.Sprintf("slot-%06d.seg", i) }

// scan rebuilds the in-memory slot map from the slot files on fs, dropping
// anything that fails its checksum (torn writes from a crash) and any slot
// beyond maxSlots (the capacity was lowered since the files were written;
// the segments come back by Range refetch). Every slot is read through one
// pooled buffer.
func (s *Slab) scan() error {
	names, err := s.fs.List("slot-")
	if err != nil {
		return fmt.Errorf("largeobject: scan slab: %w", err)
	}
	s.slots = make([]slotState, s.maxSlots)
	buf := s.bufs.Get().(*[]byte)
	defer s.putBuf(buf)
	for _, name := range names {
		var ord int
		if _, err := fmt.Sscanf(name, "slot-%06d.seg", &ord); err != nil || ord < 0 {
			continue
		}
		if ord >= s.maxSlots {
			s.fs.Remove(name)
			continue
		}
		id, data, err := s.readSlot(ord, *buf)
		if err != nil || int64(len(data)) > s.segSize {
			s.fs.Remove(name)
			continue
		}
		s.slots[ord] = slotState{used: true, id: id, tick: s.tick}
		s.bySeg[id] = ord
		s.tick++
	}
	for i := range s.slots {
		if !s.slots[i].used {
			s.free = append(s.free, i)
		}
	}
	return nil
}

// A slot frame is: u32be(crc over the rest) raw32(segID) uvarint(len) data.
// parseFrame verifies one; data aliases raw.
func parseFrame(raw []byte) (SegID, []byte, error) {
	var id SegID
	if len(raw) < 4+SegIDLen {
		return id, nil, wire.ErrMalformed
	}
	sum := binary.BigEndian.Uint32(raw[:4])
	payload := raw[4:]
	if crc32.Checksum(payload, slabCRC) != sum {
		return id, nil, fmt.Errorf("largeobject: slot checksum mismatch: %w", wire.ErrMalformed)
	}
	r := wire.Reader{Buf: payload}
	rawID, err := r.Raw(SegIDLen)
	if err != nil {
		return id, nil, err
	}
	copy(id[:], rawID)
	n, err := r.Uvarint()
	if err != nil || n != uint64(r.Len()) {
		return id, nil, wire.ErrMalformed
	}
	data, err := r.Raw(int(n))
	if err != nil {
		return id, nil, err
	}
	return id, data, nil
}

// readSlot reads ord's slot file into buf and verifies the frame; the
// returned data aliases buf.
func (s *Slab) readSlot(ord int, buf []byte) (SegID, []byte, error) {
	n, err := store.ReadInto(s.fs, slotName(ord), buf)
	if err != nil {
		return SegID{}, nil, err
	}
	return parseFrame(buf[:n])
}

// Put stores data under its content address, evicting the least recently
// used segment if no slot is free. Storing a segment larger than the slab's
// segment size is an error; storing an already resident segment only
// refreshes its LRU position.
//
// The slot is reserved under the lock but the id is published in bySeg only
// after the frame write completes: a Get must never read a slot mid-write —
// it would misread the torn frame as corruption and free the slot under the
// writer, letting a second Put reuse it concurrently.
func (s *Slab) Put(id SegID, data []byte) error {
	if int64(len(data)) > s.segSize {
		return fmt.Errorf("largeobject: segment %v len %d exceeds slot size %d", id, len(data), s.segSize)
	}
	s.mu.Lock()
	if ord, ok := s.bySeg[id]; ok {
		s.slots[ord].tick = s.tick
		s.tick++
		s.mu.Unlock()
		return nil
	}
	ord, evicted, ok := s.allocate()
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("largeobject: every slot has a write in flight")
	}
	s.slots[ord] = slotState{used: true, writing: true, id: id, tick: s.tick}
	s.tick++
	s.mu.Unlock()

	err := s.writeSlot(ord, id, data)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.slots[ord] = slotState{}
		s.free = append(s.free, ord)
		return fmt.Errorf("largeobject: write slot %d: %w", ord, err)
	}
	if _, dup := s.bySeg[id]; dup {
		// A concurrent Put of the same segment published first; its copy
		// serves, this slot frees (the duplicate frame is simply overwritten
		// by the slot's next tenant).
		s.slots[ord] = slotState{}
		s.free = append(s.free, ord)
		return nil
	}
	s.slots[ord].writing = false
	s.bySeg[id] = ord
	s.puts++
	if evicted {
		s.evictions++
	}
	return nil
}

// writeSlot writes one CRC-framed segment into ord's slot file: the header
// is built beside the data and the two are written in turn, so the segment
// is never copied into a frame.
func (s *Slab) writeSlot(ord int, id SegID, data []byte) error {
	var hdr [frameHeaderMax]byte
	copy(hdr[4:], id[:])
	n := 4 + SegIDLen + binary.PutUvarint(hdr[4+SegIDLen:], uint64(len(data)))
	sum := crc32.Update(crc32.Update(0, slabCRC, hdr[4:n]), slabCRC, data)
	binary.BigEndian.PutUint32(hdr[:4], sum)

	f, err := s.fs.Create(slotName(ord))
	if err != nil {
		return err
	}
	if _, err = f.Write(hdr[:n]); err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocate picks a slot under s.mu: free list first, then LRU eviction.
// Slots with a write in flight are never candidates; ok is false when every
// slot is being written (only possible with more concurrent writers than
// slots).
func (s *Slab) allocate() (ord int, evicted, ok bool) {
	if n := len(s.free); n > 0 {
		ord = s.free[n-1]
		s.free = s.free[:n-1]
		return ord, false, true
	}
	victim, minTick := -1, uint64(0)
	for i := range s.slots {
		if s.slots[i].writing {
			continue
		}
		if !s.slots[i].used {
			return i, false, true
		}
		if victim < 0 || s.slots[i].tick < minTick {
			victim, minTick = i, s.slots[i].tick
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	delete(s.bySeg, s.slots[victim].id)
	return victim, true, true
}

// Get returns the segment's bytes if resident and intact; the caller owns
// them. A corrupt slot is dropped and reported as a miss.
func (s *Slab) Get(id SegID) ([]byte, bool) {
	data, release, ok := s.view(id)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(data))
	copy(out, data)
	release()
	return out, true
}

// view is Get without the copy: data aliases a pooled buffer that was read
// and verified for this call alone, and is valid until release, which must
// be called exactly once. Views must not be shared between goroutines or
// outlive their reader; everything else takes Get's owned copy.
func (s *Slab) view(id SegID) (data []byte, release func(), ok bool) {
	s.mu.Lock()
	ord, ok := s.bySeg[id]
	if ok {
		s.slots[ord].tick = s.tick
		s.tick++
	}
	s.mu.Unlock()
	if !ok {
		s.miss()
		return nil, nil, false
	}
	buf := s.bufs.Get().(*[]byte)
	gotID, data, err := s.readSlot(ord, *buf)
	if err != nil || gotID != id {
		s.putBuf(buf)
		s.mu.Lock()
		if cur, ok := s.bySeg[id]; ok && cur == ord {
			delete(s.bySeg, id)
			s.slots[ord] = slotState{}
			s.free = append(s.free, ord)
		}
		s.mu.Unlock()
		s.miss()
		return nil, nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	released := false
	return data, func() {
		if released {
			panic("largeobject: slot buffer released twice")
		}
		released = true
		s.putBuf(buf)
	}, true
}

// putBuf is the one way a read buffer goes back to the pool.
func (s *Slab) putBuf(buf *[]byte) {
	if s.onRelease != nil {
		s.onRelease(*buf)
	}
	s.bufs.Put(buf)
}

func (s *Slab) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

// Contains reports residency without touching LRU state or reading the slot.
func (s *Slab) Contains(id SegID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.bySeg[id]
	return ok
}

// Resident returns the bitmap of m's segments currently held by the slab.
func (s *Slab) Resident(m *Manifest) BitSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bs BitSet
	for i := range m.Segments {
		if _, ok := s.bySeg[m.Segments[i]]; ok {
			bs = bs.Set(i)
		}
	}
	return bs
}

// SlabStats is a point-in-time snapshot of slab telemetry.
type SlabStats struct {
	Slots, Used                   int
	Hits, Misses, Puts, Evictions uint64
}

// Stats returns current telemetry.
func (s *Slab) Stats() SlabStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	used := 0
	for i := range s.slots {
		if s.slots[i].used {
			used++
		}
	}
	return SlabStats{
		Slots: len(s.slots), Used: used,
		Hits: s.hits, Misses: s.misses, Puts: s.puts, Evictions: s.evictions,
	}
}
