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
// instead of hammering the origin. It holds no key, only the key's hash
// (hashKey, the memory tier's), so a read compares the key in the record:
// two keys that share a hash share an index entry, the later one's, and a
// read of the other is a miss that drops it.
//
// A record's response is the memory tier's entry as it is (httpmsg.Stored):
// a demotion appends the entry's key and header bytes without building a
// string or re-encoding them, and a promotion reads the record into a pooled
// buffer, copies the header bytes out of it as one string and the body
// straight into the memory tier's arena. Promotion copies the entry up and
// leaves the record in place (an inclusive hierarchy: the next crash still
// finds it), so the next demotion of an unchanged entry writes nothing.
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

// records are the buffers promotions read records into; one that a record
// larger than maxPooledRecord grew is left to the collector.
var records = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRecord = 1 << 20

// appendDiskKey appends the head of one record's payload: the
// uvarint-length-prefixed key and the expiry (unix nanoseconds, big-endian).
// A tombstone is that head alone, with expiry 0. A live record's head is
// followed by the response's stored form as a self-describing httpmsg
// payload (httpmsg.AppendStored).
func appendDiskKey[K string | []byte](buf []byte, key K, expires int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return binary.BigEndian.AppendUint64(buf, uint64(expires))
}

// splitDiskPayload splits a record's payload; body is what
// httpmsg.DecodeStored takes, empty for a tombstone.
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
// At the replay a tombstone, an expired record that is not Kept, or a record
// whose body is not in the codec deletes the entry. No file is created until the
// first Put.
func OpenDisk(fs store.FS, maxBytes int64, clock func() time.Time) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if clock == nil {
		clock = time.Now
	}
	now := clock()
	log, err := store.OpenSegLog(fs, maxBytes, func(p []byte) (uint64, int64, bool, bool) {
		key, expires, body, ok := splitDiskPayload(p)
		if !ok {
			return 0, 0, false, false
		}
		exp := time.Unix(0, expires)
		s, err := httpmsg.DecodeStored(body)
		live := err == nil && (!Expired(exp, now) || Kept(s.Header, exp, now))
		return hashKey(string(key)), expires, live, true
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
	if resp == nil || resp.Stream != nil || !resp.Cacheable() {
		return
	}
	s := resp.StoredForm()
	d.put(hashKey(key), []byte(key), &s, expires)
}

// put is Put for a stored form, an entry of the memory tier's among them,
// which a shared cache may store by construction: its key, with the hash it
// has in both tiers, and its stored header go into the record as they are.
func (d *Disk) put(hash uint64, key []byte, s *httpmsg.Stored, expires time.Time) {
	if Expired(expires, d.clock()) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.payload = httpmsg.AppendStored(append(appendDiskKey(d.payload[:0], key, expires.UnixNano()), wire.Magic), s)
	d.appendLocked(hash, expires)
}

// appendLocked appends the record built in d.payload under hash, unless the
// one on disk is the same and not aging.
func (d *Disk) appendLocked(hash uint64, expires time.Time) {
	exp := expires.UnixNano()
	head := store.FrameHead(d.payload)
	if old, ok := d.log.Lookup(hash); ok && old.Word == exp && old.Head == head && !d.log.Aging(old) {
		d.clean.Add(1)
	} else if d.log.Append(hash, exp, head, d.payload) == nil {
		d.stores.Add(1)
	}
	// Let go of a buffer that one unusually large entry grew, so the tier
	// does not pin its largest record for ever.
	if cap(d.payload) > 1<<20 {
		d.payload = nil
	}
}

// Get returns the cached response and its expiry for key if its record is
// fresh, or ok=false. It reads exactly the indexed record and serves it only
// if its frame verifies and it carries this key; anything else that is not
// Kept drops the entry and is a miss. The response is freshly decoded, with
// a body of its own.
func (d *Disk) Get(key string) (*httpmsg.Response, time.Time, bool) {
	var resp *httpmsg.Response
	var expires time.Time
	d.get(key, func(s httpmsg.Stored, exp time.Time, stale bool) {
		if !stale {
			resp, expires = ownCopy(s), exp
		}
	})
	return resp, expires, resp != nil
}

// get is Get in the form the memory tier keeps, for a record that is fresh
// or, once expired, Kept: use sees the record's header copied out as one
// string, its body in the read buffer, which is reused once use returns, its
// expiry, and whether it has expired. A record that is not Kept, or does not read back as key's,
// is dropped. A fresh record counts as a hit, anything else as a miss.
func (d *Disk) get(key string, use func(s httpmsg.Stored, expires time.Time, stale bool)) {
	now := d.clock()
	hash := hashKey(key)
	d.mu.Lock()
	ref, ok := d.log.Lookup(hash)
	d.mu.Unlock()
	if !ok {
		d.misses.Add(1)
		return
	}
	expires := time.Unix(0, ref.Word)
	buf := records.Get().(*[]byte)
	if cap(*buf) < ref.Len() {
		*buf = make([]byte, ref.Len())
	}
	s, err := d.read(key, ref, (*buf)[:ref.Len()])
	kept := err == nil
	stale := kept && Expired(expires, now)
	if stale {
		kept = Kept(s.Header, expires, now)
	}
	if kept {
		use(s, expires, stale)
	}
	if cap(*buf) <= maxPooledRecord {
		records.Put(buf)
	}
	if !kept {
		d.mu.Lock()
		d.log.Forget(hash, ref)
		d.mu.Unlock()
	}
	if kept && !stale {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
}

// Until reports whether key's indexed record is fresh and until when, without
// reading it: so the record may be another key's that shares key's hash.
func (d *Disk) Until(key string) (time.Time, bool) {
	d.mu.Lock()
	ref, ok := d.log.Lookup(hashKey(key))
	d.mu.Unlock()
	expires := time.Unix(0, ref.Word)
	return expires, ok && !Expired(expires, d.clock())
}

// read fetches the record ref points at into buf, verified by the log, and
// decodes it if it carries key; the body aliases buf.
func (d *Disk) read(key string, ref store.SegRef, buf []byte) (httpmsg.Stored, error) {
	p, err := d.log.Read(ref, buf)
	if err != nil {
		return httpmsg.Stored{}, err
	}
	got, _, body, ok := splitDiskPayload(p)
	if !ok || string(got) != key {
		return httpmsg.Stored{}, errDiskRecord
	}
	return httpmsg.DecodeStored(body)
}

// Invalidate removes key from the disk tier, and appends a tombstone so the
// next open does not find the record again.
func (d *Disk) Invalidate(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.payload = appendDiskKey(d.payload[:0], key, 0)
	d.log.Tombstone(hashKey(key), store.FrameHead(d.payload), d.payload)
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
