package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// Disk is the optional L2 cache tier: entries evicted from the memory LRU
// while still fresh demote to one file each, and a miss in memory consults
// the disk index before the cooperative cache or the origin. The index
// (key → file, size, expiry) is rebuilt by scanning the filesystem at
// open, so a restarted node rewarms from disk instead of hammering the
// origin. Promotion copies the entry up but leaves the file in place until
// it expires or the disk budget evicts it (an inclusive hierarchy: the
// next crash still finds it).
type Disk struct {
	fs       store.FS
	clock    func() time.Time
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*diskEntry
	lru     *list.List // front = most recently used
	bytes   int64

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

type diskEntry struct {
	key     string
	file    string
	size    int64
	expires time.Time
	elem    *list.Element
}

var diskCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenDisk opens (or initializes) a disk tier rooted at fs, holding at
// most maxBytes of encoded entries (zero means 1 GiB). Corrupt or expired
// files found during the scan are deleted.
func OpenDisk(fs store.FS, maxBytes int64, clock func() time.Time) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if clock == nil {
		clock = time.Now
	}
	d := &Disk{
		fs:       fs,
		clock:    clock,
		maxBytes: maxBytes,
		entries:  make(map[string]*diskEntry),
		lru:      list.New(),
	}
	names, err := fs.List("")
	if err != nil {
		return nil, fmt.Errorf("cache: scan disk tier: %w", err)
	}
	now := clock()
	for _, name := range names {
		data, err := store.ReadAll(fs, name)
		if err != nil {
			continue
		}
		key, expires, _, err := decodeDiskEntry(data)
		if err != nil || !expires.After(now) {
			fs.Remove(name)
			continue
		}
		e := &diskEntry{key: key, file: name, size: int64(len(data)), expires: expires}
		if old, ok := d.entries[key]; ok {
			d.removeLocked(old)
		}
		e.elem = d.lru.PushBack(e)
		d.entries[key] = e
		d.bytes += e.size
	}
	d.evictLocked()
	return d, nil
}

// fileName derives the entry's file name from its key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + ".ent"
}

// encodeDiskEntry frames one entry: CRC-32C over the rest, then the
// uvarint-length-prefixed key, the expiry (unix nanoseconds), and the
// binary-encoded response (httpmsg codec, magic byte first).
func encodeDiskEntry(key string, expires time.Time, resp *httpmsg.Response) ([]byte, error) {
	payload := binary.AppendUvarint(nil, uint64(len(key)))
	payload = append(payload, key...)
	payload = binary.BigEndian.AppendUint64(payload, uint64(expires.UnixNano()))
	payload = append(payload, httpmsg.EncodeResponse(resp)...)
	out := binary.BigEndian.AppendUint32(nil, crc32.Checksum(payload, diskCRC))
	return append(out, payload...), nil
}

// decodeDiskEntry validates and parses one entry file. A body that is not
// in the httpmsg codec fails here like a bad checksum does, and the caller
// drops the file.
func decodeDiskEntry(data []byte) (key string, expires time.Time, resp *httpmsg.Response, err error) {
	if len(data) < 4 {
		return "", time.Time{}, nil, fmt.Errorf("cache: disk entry too short")
	}
	sum := binary.BigEndian.Uint32(data[:4])
	payload := data[4:]
	if crc32.Checksum(payload, diskCRC) != sum {
		return "", time.Time{}, nil, fmt.Errorf("cache: disk entry checksum mismatch")
	}
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || uint64(len(payload)-sz) < n+8 {
		return "", time.Time{}, nil, fmt.Errorf("cache: disk entry truncated key")
	}
	key = string(payload[sz : sz+int(n)])
	rest := payload[sz+int(n):]
	expires = time.Unix(0, int64(binary.BigEndian.Uint64(rest[:8])))
	r, err := httpmsg.DecodeResponse(rest[8:])
	if err != nil {
		return "", time.Time{}, nil, fmt.Errorf("cache: disk entry body: %w", err)
	}
	return key, expires, r, nil
}

// Put demotes one entry to disk. Stale or uncacheable responses never
// reach the disk tier; oversized entries are skipped.
func (d *Disk) Put(key string, resp *httpmsg.Response, expires time.Time) {
	if resp == nil || !resp.Cacheable() || !expires.After(d.clock()) {
		return
	}
	data, err := encodeDiskEntry(key, expires, resp)
	if err != nil || int64(len(data)) > d.maxBytes {
		return
	}
	name := fileName(key)
	f, err := d.fs.Create(name)
	if err != nil {
		return
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		d.fs.Remove(name)
		return
	}
	// A torn cache file is harmless (the CRC rejects it at the next scan),
	// so the disk tier does not fsync: it is soft state.
	if err := f.Close(); err != nil {
		d.fs.Remove(name)
		return
	}
	d.mu.Lock()
	if old, ok := d.entries[key]; ok {
		d.removeEntryLocked(old, false)
	}
	e := &diskEntry{key: key, file: name, size: int64(len(data)), expires: expires}
	e.elem = d.lru.PushFront(e)
	d.entries[key] = e
	d.bytes += e.size
	d.evictLocked()
	d.mu.Unlock()
	d.stores.Add(1)
}

// Get returns the cached response and its expiry for key, or ok=false.
// The caller owns the returned response (it is freshly decoded).
func (d *Disk) Get(key string) (*httpmsg.Response, time.Time, bool) {
	now := d.clock()
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok {
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	if !e.expires.After(now) {
		d.removeLocked(e)
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	d.lru.MoveToFront(e.elem)
	file, expires := e.file, e.expires
	d.mu.Unlock()

	data, err := store.ReadAll(d.fs, file)
	if err != nil {
		d.drop(key)
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	gotKey, _, resp, err := decodeDiskEntry(data)
	if err != nil || gotKey != key {
		d.drop(key)
		d.misses.Add(1)
		return nil, time.Time{}, false
	}
	d.hits.Add(1)
	return resp, expires, true
}

// Invalidate removes key from the disk tier.
func (d *Disk) Invalidate(key string) { d.drop(key) }

func (d *Disk) drop(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		d.removeLocked(e)
	}
}

// removeLocked unlinks the entry and deletes its file.
func (d *Disk) removeLocked(e *diskEntry) { d.removeEntryLocked(e, true) }

func (d *Disk) removeEntryLocked(e *diskEntry, deleteFile bool) {
	delete(d.entries, e.key)
	d.lru.Remove(e.elem)
	d.bytes -= e.size
	if deleteFile {
		d.fs.Remove(e.file)
	}
}

// evictLocked drops least-recently-used entries until within budget.
func (d *Disk) evictLocked() {
	for d.bytes > d.maxBytes {
		back := d.lru.Back()
		if back == nil {
			return
		}
		d.removeLocked(back.Value.(*diskEntry))
		d.evictions.Add(1)
	}
}

// Len returns the number of disk entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// DiskStats reports disk tier counters.
type DiskStats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// Stats returns a snapshot of the disk tier counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	entries, bytes := len(d.entries), d.bytes
	d.mu.Unlock()
	return DiskStats{
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Stores:    d.stores.Load(),
		Evictions: d.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
