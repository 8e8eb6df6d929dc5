package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
	"nakika/internal/wire"
)

// Disk is the optional L2 cache tier: the HTTP owner of a store.SegLog.
// Entries evicted from the memory LRU while still fresh demote to one record
// each at the end of the log, and a miss in memory consults the log's index
// before the cooperative cache or the origin. The log frames, places,
// verifies and reclaims the records; what is the tier's own is the payload
// (key, expiry, the response codec), expiry, and the rule that an entry
// already on disk unchanged is not written again. The index is rebuilt by
// replaying the segments at open, so a restarted node rewarms from disk
// instead of hammering the origin.
//
// Promotion copies the entry up and leaves the record in place (an inclusive
// hierarchy: the next crash still finds it), so the next demotion of an
// unchanged entry writes nothing.
type Disk struct {
	clock func() time.Time

	mu      sync.Mutex
	log     *store.SegLog // its owner word is the entry's expiry, unix nanoseconds
	payload []byte        // the reused record buffer

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64
	clean  atomic.Int64
}

var errDiskRecord = errors.New("cache: disk record does not match its index entry")

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
// maxBytes of segment files (zero means 1 GiB). The log removes every file
// that is not a segment — the one-file-per-entry layout of earlier releases
// included: the tier is soft state and refills from peers and the origin.
// At the replay an expired record or a tombstone deletes the entry, and so
// does a record whose body is not in the codec. No file is created until the
// first Put.
func OpenDisk(fs store.FS, maxBytes int64, clock func() time.Time) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if clock == nil {
		clock = time.Now
	}
	now := clock()
	log, err := store.OpenSegLog(fs, maxBytes, func(p []byte) (string, int64, bool, bool) {
		key, expires, body, ok := splitDiskPayload(p)
		if !ok {
			return "", 0, false, false
		}
		live := !expired(time.Unix(0, expires), now)
		if live {
			_, err := httpmsg.DecodeResponse(body)
			live = err == nil
		}
		return string(key), expires, live, true
	})
	if err != nil {
		return nil, fmt.Errorf("cache: scan disk tier: %w", err)
	}
	return &Disk{clock: clock, log: log}, nil
}

// Put demotes one entry to disk: one Write at the end of the log. Stale or
// uncacheable responses never reach the disk tier; oversized entries are
// skipped. An entry whose record is already on disk, byte for byte and with
// the same expiry, is not written again, unless that record is aging: then
// it is appended afresh, so an entry that keeps being used is carried forward
// instead of dying with its segment.
func (d *Disk) Put(key string, resp *httpmsg.Response, expires time.Time) {
	if resp == nil || resp.Stream != nil || !resp.Cacheable() || expired(expires, d.clock()) {
		return
	}
	exp := expires.UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.payload = appendDiskPayload(d.payload[:0], key, exp, resp)
	head := store.FrameHead(d.payload)
	if old, ok := d.log.Lookup(key); ok && old.Word == exp && old.Head == head && !d.log.Aging(old) {
		d.clean.Add(1)
	} else if d.log.Append(key, exp, head, d.payload) == nil {
		d.stores.Add(1)
	}
	// Let go of a buffer that one unusually large entry grew, so the tier
	// does not pin its largest record for ever.
	if cap(d.payload) > 1<<20 {
		d.payload = nil
	}
}

// Get returns the cached response and its expiry for key, or ok=false. It
// reads exactly the indexed record and serves it only if its frame verifies
// and it carries this key; anything else drops the entry and is a miss. The
// caller owns the returned response (it is freshly decoded).
func (d *Disk) Get(key string) (*httpmsg.Response, time.Time, bool) {
	now := d.clock()
	d.mu.Lock()
	ref, ok := d.log.Lookup(key)
	if ok && expired(time.Unix(0, ref.Word), now) {
		d.log.Forget(key, ref)
		ok = false
	}
	d.mu.Unlock()
	if ok {
		resp, err := d.read(key, ref)
		if err == nil {
			d.hits.Add(1)
			return resp, time.Unix(0, ref.Word), true
		}
		d.mu.Lock()
		d.log.Forget(key, ref)
		d.mu.Unlock()
	}
	d.misses.Add(1)
	return nil, time.Time{}, false
}

// Until reports whether key's indexed record is fresh and until when, without
// reading it.
func (d *Disk) Until(key string) (time.Time, bool) {
	d.mu.Lock()
	ref, ok := d.log.Lookup(key)
	d.mu.Unlock()
	expires := time.Unix(0, ref.Word)
	return expires, ok && !expired(expires, d.clock())
}

// read fetches the record ref points at, verified by the log, and decodes it
// if it carries key.
func (d *Disk) read(key string, ref store.SegRef) (*httpmsg.Response, error) {
	p, err := d.log.Read(ref, make([]byte, ref.Len()))
	if err != nil {
		return nil, err
	}
	got, _, body, ok := splitDiskPayload(p)
	if !ok || string(got) != key {
		return nil, errDiskRecord
	}
	return httpmsg.DecodeResponse(body)
}

// Invalidate removes key from the disk tier, and appends a tombstone so the
// next open does not find the record again.
func (d *Disk) Invalidate(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.payload = appendDiskPayload(d.payload[:0], key, 0, nil)
	d.log.Tombstone(key, store.FrameHead(d.payload), d.payload)
}

// Close closes the log. The tier still answers Get afterwards but stores
// nothing more.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// Len returns the number of disk entries.
func (d *Disk) Len() int { return d.Stats().Entries }

// DiskStats reports disk tier counters beside its log's. Stores counts
// records appended by Put and Clean the Puts that found their record already
// on disk and wrote nothing.
type DiskStats struct {
	Hits   int64
	Misses int64
	Stores int64
	Clean  int64
	store.SegLogStats
}

// Stats returns a snapshot of the disk tier counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	log := d.log.Stats()
	d.mu.Unlock()
	return DiskStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Stores:      d.stores.Load(),
		Clean:       d.clean.Load(),
		SegLogStats: log,
	}
}
