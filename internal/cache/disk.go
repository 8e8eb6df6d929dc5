package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
	"nakika/internal/wire"
)

// Disk is the optional L2 cache tier: an append-only log. Entries evicted
// from the memory LRU while still fresh demote to one record each at the end
// of the active segment file, and a miss in memory consults the disk index
// before the cooperative cache or the origin. A record is the WAL's frame
// (store.AppendFrame: length, CRC-32C, payload) and is never modified once
// written, so a reader is only ever sent to bytes that are complete; every
// read verifies the frame and the key. The index (key → segment, offset,
// length, expiry) is rebuilt by replaying the segments at open, so a
// restarted node rewarms from disk instead of hammering the origin.
//
// Promotion copies the entry up and leaves the record in place (an inclusive
// hierarchy: the next crash still finds it), so the next demotion of an
// unchanged entry writes nothing. Space is reclaimed a whole segment at a
// time, oldest first; superseded records, tombstones and expired entries go
// with the segment that holds them.
type Disk struct {
	fs        store.FS
	clock     func() time.Time
	maxBytes  int64
	segTarget int64

	mu     sync.Mutex
	index  map[string]diskRef
	segs   []*segment // oldest first
	active store.File // append handle on the last segment; nil until the first write, after a failed one and after Close
	closed bool
	nextID uint64
	// appended is the log position of the next byte: every byte found at
	// open or written since, whether or not its segment still exists.
	appended int64
	bytes    int64 // sum of the segment files' sizes
	live     int64 // bytes of the records the index points at
	payload  []byte
	rec      []byte // payload and rec are the reused record buffers

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	clean     atomic.Int64
	evictions atomic.Int64
}

// segment is one log file. Only the newest is ever appended to, and only by
// the Disk that created it.
type segment struct {
	name string
	base int64 // log position of the file's first byte
	size int64
	// keys names every record in the file that the index pointed at when
	// it was written: the entries to drop when the file is reclaimed.
	keys []string
}

// diskRef locates one record. head is the record's frame header (payload
// length and checksum): two records under one key with the same expiry and
// the same head are the same bytes.
type diskRef struct {
	seg     *segment
	off, n  uint32
	expires int64 // unix nanoseconds
	head    [store.FrameHeader]byte
}

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	segDigits = 10
	// maxSegment is the size the active segment is not allowed to pass: a
	// record that would take it further seals it and begins the next.
	// Records are never split, so only a segment of one larger record is
	// longer. It is the unit of reclamation and of the boot rescan.
	maxSegment = 1 << 20
)

var errDiskRecord = errors.New("cache: disk record does not match its index entry")

func segName(id uint64) string {
	return fmt.Sprintf("%s%0*d%s", segPrefix, segDigits, id, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, segPrefix)
	if digits, ok = strings.CutSuffix(digits, segSuffix); !ok || len(digits) != segDigits {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	return id, err == nil
}

// appendDiskPayload appends one record's payload: the uvarint-length-prefixed
// key, the expiry (unix nanoseconds, big-endian) and the response as a
// self-describing httpmsg payload. A nil resp makes a tombstone: expiry 0 and
// nothing after it.
func appendDiskPayload(buf []byte, key string, expires int64, resp *httpmsg.Response) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(expires))
	if resp == nil {
		return buf
	}
	return httpmsg.AppendResponse(append(buf, wire.Magic), resp)
}

// splitDiskPayload is appendDiskPayload's inverse; body is what
// httpmsg.DecodeResponse takes, empty for a tombstone.
func splitDiskPayload(p []byte) (key []byte, expires int64, body []byte, ok bool) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) || len(p)-sz-int(n) < 8 {
		return nil, 0, nil, false
	}
	rest := p[sz+int(n):]
	return p[sz : sz+int(n)], int64(binary.BigEndian.Uint64(rest)), rest[8:], true
}

// OpenDisk opens (or initializes) a disk tier rooted at fs, holding at most
// maxBytes of segment files (zero means 1 GiB). Every file that is not a
// segment is removed — the one-file-per-entry layout of earlier releases
// included: the tier is soft state and refills from peers and the origin.
// Segments are replayed oldest first: a later record supersedes an earlier
// one under the same key, an expired record or a tombstone deletes it, and a
// segment's scan stops at its first torn or corrupt frame, keeping what came
// before. A segment left with no live record is removed. No file is created
// until the first Put.
func OpenDisk(fs store.FS, maxBytes int64, clock func() time.Time) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if clock == nil {
		clock = time.Now
	}
	d := &Disk{
		fs:        fs,
		clock:     clock,
		maxBytes:  maxBytes,
		segTarget: min(maxSegment, maxBytes/8),
		index:     make(map[string]diskRef),
	}
	names, err := fs.List("")
	if err != nil {
		return nil, fmt.Errorf("cache: scan disk tier: %w", err)
	}
	now := clock()
	var scanned []*segment
	for _, name := range names { // sorted, and ids are zero-padded: oldest first
		id, ok := parseSegName(name)
		if !ok {
			fs.Remove(name)
			continue
		}
		d.nextID = max(d.nextID, id+1)
		data, err := store.ReadAll(fs, name)
		if err != nil {
			data = nil // an unreadable segment indexes nothing and is removed below
		}
		seg := &segment{name: name, size: int64(len(data))}
		scanned = append(scanned, seg)
		off := 0
		store.ReplayFrames(data, func(p []byte) error {
			start := off
			off += store.FrameHeader + len(p)
			key, expires, body, ok := splitDiskPayload(p)
			if !ok {
				return nil
			}
			if old, ok := d.index[string(key)]; ok {
				d.unindexLocked(string(key), old)
			}
			if expired(time.Unix(0, expires), now) {
				return nil
			}
			if _, err := httpmsg.DecodeResponse(body); err != nil {
				return nil
			}
			d.index[string(key)] = diskRef{seg: seg, off: uint32(start), n: uint32(off - start), expires: expires,
				head: [store.FrameHeader]byte(data[start:])}
			d.live += int64(off - start)
			return nil
		})
	}
	for key, ref := range d.index {
		ref.seg.keys = append(ref.seg.keys, key)
	}
	for _, seg := range scanned {
		if len(seg.keys) == 0 {
			fs.Remove(seg.name)
			continue
		}
		seg.base = d.appended
		d.appended += seg.size
		d.bytes += seg.size
		d.segs = append(d.segs, seg)
	}
	d.evictLocked()
	return d, nil
}

// Put demotes one entry to disk: one Write at the end of the active segment.
// Stale or uncacheable responses never reach the disk tier; oversized
// entries are skipped. An entry whose record is already on disk, byte for
// byte and with the same expiry, is not written again, unless that record
// sits in the oldest eighth of a full log: then it is appended afresh, so an
// entry that keeps being used is carried forward instead of dying with its
// segment.
func (d *Disk) Put(key string, resp *httpmsg.Response, expires time.Time) {
	if resp == nil || resp.Stream != nil || !resp.Cacheable() || expired(expires, d.clock()) {
		return
	}
	exp := expires.UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.releaseBuffersLocked()
	d.payload = appendDiskPayload(d.payload[:0], key, exp, resp)
	if len(d.payload) > store.MaxRecord || int64(len(d.payload)+store.FrameHeader) > d.maxBytes {
		return
	}
	d.rec = store.AppendFrame(d.rec[:0], d.payload)
	head := [store.FrameHeader]byte(d.rec)
	// A segment is reclaimed once the log has grown maxBytes past its first
	// byte, so "the oldest eighth" is judged by where the record's segment
	// begins: the entry then has an eighth of the budget in appends left.
	if old, ok := d.index[key]; ok && old.expires == exp && old.head == head &&
		d.appended-old.seg.base <= d.maxBytes-d.maxBytes/8 {
		d.clean.Add(1)
		return
	}
	seg, off, ok := d.appendLocked(d.rec)
	if !ok {
		return
	}
	// The index moves only now that the record is whole in the file: no
	// reader can be sent to bytes that are not there.
	if old, ok := d.index[key]; ok {
		d.unindexLocked(key, old)
	}
	d.index[key] = diskRef{seg: seg, off: uint32(off), n: uint32(len(d.rec)), expires: exp, head: head}
	d.live += int64(len(d.rec))
	seg.keys = append(seg.keys, key)
	d.stores.Add(1)
}

// releaseBuffersLocked lets go of record buffers that one unusually large
// entry grew, so the tier does not pin its largest record for ever.
func (d *Disk) releaseBuffersLocked() {
	if cap(d.payload) > maxSegment {
		d.payload, d.rec = nil, nil
	}
}

// appendLocked writes one whole record to the active segment, sealing the
// segment first if the record would take it past the target and starting a
// new one when there is none, then brings the log back within budget. It
// returns where the record landed. A failed or short write leaves a torn
// tail that the rescan stops at, so that segment is sealed too and the next
// record starts another.
func (d *Disk) appendLocked(rec []byte) (*segment, int64, bool) {
	if d.closed {
		return nil, 0, false
	}
	if d.active != nil {
		if seg := d.segs[len(d.segs)-1]; seg.size > 0 && seg.size+int64(len(rec)) > d.segTarget {
			d.sealLocked()
		}
	}
	if d.active == nil {
		name := segName(d.nextID)
		f, err := d.fs.OpenAppend(name)
		if err != nil {
			return nil, 0, false
		}
		d.nextID++
		d.active = f
		d.segs = append(d.segs, &segment{name: name, base: d.appended})
	}
	seg := d.segs[len(d.segs)-1]
	off := seg.size
	n, err := d.active.Write(rec)
	seg.size += int64(n)
	d.bytes += int64(n)
	d.appended += int64(n)
	ok := err == nil && n == len(rec)
	if !ok {
		d.sealLocked()
	}
	d.evictLocked()
	return seg, off, ok
}

// sealLocked closes the active segment's handle; the file is never opened
// for writing again. Nothing is buffered and the tier does not fsync (it is
// soft state, and every read is checksummed), so there is nothing a failed
// close could lose that a crash could not.
func (d *Disk) sealLocked() error {
	if d.active == nil {
		return nil
	}
	err := d.active.Close()
	d.active = nil
	return err
}

// evictLocked removes whole segments, oldest first, until the files fit the
// budget, and with each the index entries that still point into it. The
// active segment is never removed: it alone cannot exceed the budget.
func (d *Disk) evictLocked() {
	sealed := len(d.segs)
	if d.active != nil {
		sealed--
	}
	for ; d.bytes > d.maxBytes && sealed > 0; sealed-- {
		seg := d.segs[0]
		d.segs[0] = nil
		d.segs = d.segs[1:]
		// A file that cannot be removed now is found, and counted, at the
		// next open.
		d.fs.Remove(seg.name)
		d.bytes -= seg.size
		for _, key := range seg.keys {
			if ref, ok := d.index[key]; ok && ref.seg == seg {
				d.unindexLocked(key, ref)
				d.evictions.Add(1)
			}
		}
	}
}

func (d *Disk) unindexLocked(key string, ref diskRef) {
	delete(d.index, key)
	d.live -= int64(ref.n)
}

// Get returns the cached response and its expiry for key, or ok=false. It
// reads exactly the indexed record and serves it only if its frame verifies
// and it carries this key; anything else drops the entry and is a miss. The
// caller owns the returned response (it is freshly decoded).
func (d *Disk) Get(key string) (*httpmsg.Response, time.Time, bool) {
	now := d.clock()
	d.mu.Lock()
	ref, ok := d.index[key]
	if ok && expired(time.Unix(0, ref.expires), now) {
		d.unindexLocked(key, ref)
		ok = false
	}
	d.mu.Unlock()
	if !ok {
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	resp, err := d.read(key, ref)
	if err != nil {
		d.mu.Lock()
		if cur, ok := d.index[key]; ok && cur == ref {
			d.unindexLocked(key, cur)
		}
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	d.hits.Add(1)
	return resp, time.Unix(0, ref.expires), true
}

// read fetches and verifies the record ref points at. A handle that can
// read at an offset (a real file, MemFS's reader) is asked for exactly the
// record; store.FS promises only sequential reads, so any other handle is
// read forward to the record, at most one segment's worth.
func (d *Disk) read(key string, ref diskRef) (*httpmsg.Response, error) {
	f, err := d.fs.Open(ref.seg.name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, ref.n)
	if ra, ok := f.(io.ReaderAt); ok {
		var n int
		if n, err = ra.ReadAt(buf, int64(ref.off)); n == len(buf) {
			err = nil // a record that ends the file may come with io.EOF
		}
	} else if _, err = io.CopyN(io.Discard, f, int64(ref.off)); err == nil {
		_, err = io.ReadFull(f, buf)
	}
	if err != nil {
		return nil, err
	}
	var resp *httpmsg.Response
	end, err := store.ReplayFrames(buf, func(p []byte) error {
		got, _, body, ok := splitDiskPayload(p)
		if !ok || string(got) != key {
			return errDiskRecord
		}
		var err error
		resp, err = httpmsg.DecodeResponse(body)
		return err
	})
	if err == nil && (resp == nil || end != len(buf)) {
		err = errDiskRecord
	}
	return resp, err
}

// Invalidate removes key from the disk tier, and appends a tombstone so the
// next open does not find the record again.
func (d *Disk) Invalidate(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ref, ok := d.index[key]
	if !ok {
		return
	}
	d.unindexLocked(key, ref)
	d.payload = appendDiskPayload(d.payload[:0], key, 0, nil)
	d.rec = store.AppendFrame(d.rec[:0], d.payload)
	d.appendLocked(d.rec)
}

// Close closes the active segment. The tier still answers Get afterwards
// but stores nothing more.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return d.sealLocked()
}

// Len returns the number of disk entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// DiskStats reports disk tier counters. Stores counts records appended by
// Put and Clean the Puts that found their record already on disk and wrote
// nothing. Bytes is what the segment files occupy, LiveBytes the part of it
// the index points at; their ratio is the log's space amplification.
type DiskStats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Clean     int64
	Evictions int64
	Entries   int
	Segments  int
	Bytes     int64
	LiveBytes int64
}

// Stats returns a snapshot of the disk tier counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	entries, segments, bytes, live := len(d.index), len(d.segs), d.bytes, d.live
	d.mu.Unlock()
	return DiskStats{
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Stores:    d.stores.Load(),
		Clean:     d.clean.Load(),
		Evictions: d.evictions.Load(),
		Entries:   entries,
		Segments:  segments,
		Bytes:     bytes,
		LiveBytes: live,
	}
}
