package largeobject

import (
	"fmt"
	"sync"

	"nakika/internal/store"
)

// Slab stores segments as records of a store.SegLog, the log the disk cache
// tier keeps its entries in: a record's payload is the segment's id followed
// by its bytes. The log frames, places, verifies and reclaims; what is the
// slab's own is the content address as key, the pooled read buffers and its
// counters. Segments are soft state: nothing is fsynced, and a torn or
// corrupt record simply fails verification and is a miss.
//
// Space is reclaimed oldest segment file first. A segment that is read, or
// put again, while its record is aging is appended afresh from the bytes in
// hand, so segments in use are carried forward and the rest die in order.
type Slab struct {
	segSize int64
	slots   int // full segments the log's budget holds

	mu                 sync.Mutex
	log                *store.SegLog
	hits, misses, puts uint64

	// bufs pools read buffers (*[]byte), each exactly one maximal record
	// long and never grown. A buffer is out of the pool only while one reader
	// holds a view of it.
	bufs sync.Pool
	// onRelease, when set by a test, sees every buffer on its way back to
	// the pool.
	onRelease func(buf []byte)
}

// NewSlab opens (or creates) a slab on fs with the given segment size and
// total byte capacity, replaying any surviving log segments. Capacity is
// rounded down to whole segments, minimum one, and the log's budget is that
// many maximal records. Slot files (slot-NNNNNN.seg) of the release that kept
// one file per segment are removed, not read: their segments come back by
// ranged refetch. Every other file on fs is left alone.
func NewSlab(fs store.FS, segSize, capacity int64) (*Slab, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("largeobject: segment size %d", segSize)
	}
	old, err := fs.List("slot-")
	if err != nil {
		return nil, fmt.Errorf("largeobject: scan slab: %w", err)
	}
	for _, name := range old {
		fs.Remove(name)
	}
	s := &Slab{segSize: segSize, slots: int(max(capacity/segSize, 1))}
	recMax := store.FrameHeader + SegIDLen + segSize
	s.bufs.New = func() any {
		buf := make([]byte, recMax)
		return &buf
	}
	s.log, err = store.OpenSegLog(fs, int64(s.slots)*recMax, func(p []byte) (string, int64, bool, bool) {
		if len(p) < SegIDLen || int64(len(p)) > SegIDLen+segSize {
			return "", 0, false, false
		}
		return string(p[:SegIDLen]), 0, true, true
	})
	if err != nil {
		return nil, fmt.Errorf("largeobject: scan slab: %w", err)
	}
	return s, nil
}

// Put stores data under its content address; the oldest segments make room.
// Storing a segment larger than the slab's segment size is an error; storing
// an already resident segment writes nothing unless its record is aging.
func (s *Slab) Put(id SegID, data []byte) error {
	if int64(len(data)) > s.segSize {
		return fmt.Errorf("largeobject: segment %v len %d exceeds segment size %d", id, len(data), s.segSize)
	}
	key := string(id[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref, ok := s.log.Lookup(key); ok && !s.log.Aging(ref) {
		return nil
	}
	return s.write(key, store.FrameHead(id[:], data), id[:], data)
}

// write appends one record under s.mu and counts it.
func (s *Slab) write(key string, head [store.FrameHeader]byte, parts ...[]byte) error {
	if err := s.log.Append(key, 0, head, parts...); err != nil {
		return fmt.Errorf("largeobject: write segment: %w", err)
	}
	s.puts++
	return nil
}

// Get returns the segment's bytes if resident and intact; the caller owns
// them. A corrupt record is dropped and reported as a miss.
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
	key := string(id[:])
	s.mu.Lock()
	ref, ok := s.log.Lookup(key)
	if !ok {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	buf := s.bufs.Get().(*[]byte)
	payload, err := s.log.Read(ref, *buf)
	if err == nil && (len(payload) < SegIDLen || SegID(payload) != id) {
		err = fmt.Errorf("largeobject: record is not segment %v", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.putBuf(buf)
		s.log.Forget(key, ref)
		s.misses++
		return nil, nil, false
	}
	s.hits++
	if cur, ok := s.log.Lookup(key); ok && cur == ref && s.log.Aging(ref) {
		s.write(key, ref.Head, payload) // carried forward; on failure the old record serves until reclaimed
	}
	released := false
	return payload[SegIDLen:], func() {
		if released {
			panic("largeobject: segment buffer released twice")
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

// Contains reports residency without reading the record.
func (s *Slab) Contains(id SegID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.log.Lookup(string(id[:]))
	return ok
}

// Resident returns the bitmap of m's segments currently held by the slab.
func (s *Slab) Resident(m *Manifest) BitSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bs BitSet
	for i := range m.Segments {
		if _, ok := s.log.Lookup(string(m.Segments[i][:])); ok {
			bs = bs.Set(i)
		}
	}
	return bs
}

// Close closes the log. The slab still serves what it holds afterwards but
// stores nothing more.
func (s *Slab) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// SlabStats is a point-in-time snapshot of slab telemetry beside its log's:
// Slots is how many full segments the budget holds, Used the segments
// resident, Puts the records appended (first stores and carries forward).
type SlabStats struct {
	Slots, Used        int
	Hits, Misses, Puts uint64
	store.SegLogStats
}

// Stats returns current telemetry.
func (s *Slab) Stats() SlabStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.log.Stats()
	return SlabStats{Slots: s.slots, Used: log.Entries, Hits: s.hits, Misses: s.misses, Puts: s.puts, SegLogStats: log}
}
