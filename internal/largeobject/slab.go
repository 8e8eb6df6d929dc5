package largeobject

import (
	"fmt"
	"sync"

	"nakika/internal/store"
	"nakika/internal/wire"
)

// Slab stores segments as records of a store.SegLog, the log the disk cache
// tier keeps its entries in: a record's payload is the segment's id followed
// by its bytes. The log frames, places, verifies and reclaims; what is the
// slab's own is the content address as key, the pooled read buffers and its
// counters. Segments are soft state: nothing is fsynced, and a torn or
// corrupt record simply fails verification and is a miss.
//
// A tier's complete manifests are records of the same log, under the
// reserved id manifestID, which Put refuses: a manifest by construction.
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

// manifestID stands where a segment record has its content address.
var manifestID SegID

// manifestKey is the log key of key's manifest record: the reserved id, then
// the cache key, so it is longer than any segment's key.
func manifestKey(key string) string { return string(manifestID[:]) + key }

// appendManifestRecord appends the payload of key's manifest record: m's
// encoding after the key, or nothing after it (a tombstone) when m is nil.
func appendManifestRecord(buf []byte, key string, m *Manifest) []byte {
	buf = wire.AppendString(append(buf, manifestID[:]...), key)
	if m == nil {
		return buf
	}
	return AppendManifest(buf, m)
}

// readManifestRecord is appendManifestRecord's inverse; ok is false when the
// key cannot be read. m is nil for a tombstone, and for anything after the
// key that is not a complete manifest of that key: either deletes the key.
func readManifestRecord(p []byte) (key string, m *Manifest, ok bool) {
	r := wire.Reader{Buf: p, Off: SegIDLen}
	key, err := r.String()
	if err != nil || key == "" {
		return "", nil, false
	}
	if r.Len() == 0 {
		return key, nil, true
	}
	m, err = ReadManifest(&r)
	if err != nil || r.Len() != 0 || m.Key != key || !m.Complete() {
		return key, nil, true
	}
	return key, m, true
}

// NewSlab opens (or creates) a slab on fs with the given segment size and
// total byte capacity, replaying any surviving log segments. Capacity is
// rounded down to whole segments, minimum one, and the log's budget is that
// many maximal records. The log removes every other file on fs, such as the
// slot and manifest files of earlier releases.
func NewSlab(fs store.FS, segSize, capacity int64) (*Slab, error) {
	s, _, err := openSlab(fs, segSize, capacity, 0)
	return s, err
}

// openSlab is NewSlab with spare maximal records of room beside the
// segments' (a tier's, for its manifest records), also returning the
// complete manifests the replay found, by key.
func openSlab(fs store.FS, segSize, capacity, spare int64) (*Slab, map[string]*Manifest, error) {
	if segSize <= 0 {
		return nil, nil, fmt.Errorf("largeobject: segment size %d", segSize)
	}
	s := &Slab{segSize: segSize, slots: int(max(capacity/segSize, 1))}
	recMax := store.FrameHeader + SegIDLen + segSize
	s.bufs.New = func() any {
		buf := make([]byte, recMax)
		return &buf
	}
	manifests := make(map[string]*Manifest)
	var err error
	s.log, err = store.OpenSegLog(fs, (int64(s.slots)+spare)*recMax, func(p []byte) (string, int64, bool, bool) {
		if len(p) < SegIDLen {
			return "", 0, false, false
		}
		if SegID(p) != manifestID {
			if int64(len(p)) > SegIDLen+segSize {
				return "", 0, false, false
			}
			return string(p[:SegIDLen]), 0, true, true
		}
		key, m, ok := readManifestRecord(p)
		if !ok {
			return "", 0, false, false
		}
		if m != nil {
			manifests[key] = m
		} else {
			delete(manifests, key)
		}
		return manifestKey(key), 0, m != nil, true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("largeobject: scan slab: %w", err)
	}
	for key := range manifests {
		if _, ok := s.log.Lookup(manifestKey(key)); !ok {
			delete(manifests, key) // reclaimed at the open
		}
	}
	return s, manifests, nil
}

// Put stores data under its content address; the oldest segments make room.
// Storing a segment larger than the slab's segment size, or under the
// reserved id, is an error; storing an already resident segment writes
// nothing unless its record is aging.
func (s *Slab) Put(id SegID, data []byte) error {
	if int64(len(data)) > s.segSize {
		return fmt.Errorf("largeobject: segment %v len %d exceeds segment size %d", id, len(data), s.segSize)
	}
	if id == manifestID {
		return fmt.Errorf("largeobject: segment id %v is reserved", id)
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

// putManifest appends key's manifest record: complete manifest m, or a
// tombstone when m is nil. An append that fails tombstones the key instead,
// so an older manifest the caller's table has left does not come back.
func (s *Slab) putManifest(key string, m *Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if m != nil {
		p := appendManifestRecord(nil, key, m)
		if err = s.log.Append(manifestKey(key), 0, store.FrameHead(p), p); err == nil {
			return nil
		}
		err = fmt.Errorf("largeobject: write manifest: %w", err)
	}
	p := appendManifestRecord(nil, key, nil)
	s.log.Tombstone(manifestKey(key), store.FrameHead(p), p)
	return err
}

// manifestAging reports whether key's manifest record is indexed and aging.
func (s *Slab) manifestAging(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.log.Lookup(manifestKey(key))
	return ok && s.log.Aging(ref)
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

// Resident returns how many of m's segments the slab holds.
func (s *Slab) Resident(m *Manifest) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range m.Segments {
		if _, ok := s.log.Lookup(string(m.Segments[i][:])); ok {
			n++
		}
	}
	return n
}

// Close closes the log. The slab still serves what it holds afterwards but
// stores nothing more: no segment, no manifest record, no tombstone.
func (s *Slab) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// SlabStats is a point-in-time snapshot of slab telemetry beside its log's:
// Slots is how many full segments the capacity holds, Used the segments
// resident (not manifests), Puts the segment records appended (first stores
// and carries forward).
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
	used := s.log.Count(func(key string) bool { return len(key) == SegIDLen })
	return SlabStats{Slots: s.slots, Used: used, Hits: s.hits, Misses: s.misses, Puts: s.puts, SegLogStats: log}
}
