package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// SegLog is a keyed, append-only log of soft-state records on an FS: what the
// disk cache tier and the large-object slab keep their bodies in. A record is
// the WAL's frame (FrameHeader: length, CRC-32C) around a payload only the
// owner can parse, appended to the newest seg-NNNNNNNNNN.log file and never
// modified afterwards, so a reader is only ever sent to bytes that are
// complete; every read verifies the frame. The index (key → segment, offset,
// length, frame header and one word that is the owner's) is rebuilt by
// replaying the segments at open. Space is reclaimed a whole segment at a
// time, oldest first; superseded records, tombstones and dead entries go with
// the segment that holds them. Nothing is fsynced.
//
// A SegLog does not lock: its owner serialises every method but Read, which
// touches only the filesystem.
type SegLog struct {
	fs        FS
	budget    int64
	segTarget int64

	index  map[string]SegRef
	segs   []*logSegment // oldest first
	active File          // append handle on the last segment; nil until the first write, after a failed one and after Close
	closed bool
	nextID uint64
	// appended is the log position of the next byte: every byte found at
	// open or written since, whether or not its segment still exists.
	appended  int64
	bytes     int64 // sum of the segment files' sizes
	live      int64 // bytes of the records the index points at
	evictions int64
	buf       []byte // the reused gather buffer: a record's header and short parts
}

// logSegment is one log file. Only the newest is ever appended to, and only
// by the SegLog that created it.
type logSegment struct {
	name string
	base int64 // log position of the file's first byte
	size int64
	// keys names every record in the file that the index pointed at when
	// it was written: the entries to drop when the file is reclaimed.
	keys []string
}

// SegRef locates one record. Word is the owner's (the disk tier's expiry);
// Head is the record's frame header: two records under one key with the same
// Head are the same bytes.
type SegRef struct {
	seg    *logSegment
	off, n uint32
	Word   int64
	Head   [FrameHeader]byte
}

// Len is the record's length on disk, frame header included: the buffer Read
// needs.
func (r SegRef) Len() int { return int(r.n) }

// SegLogStats is a snapshot of a log. Bytes is what the segment files occupy,
// LiveBytes the part of it the index points at; their ratio is the log's
// space amplification. Evictions counts entries lost to reclaimed segments.
type SegLogStats struct {
	Entries, Segments           int
	Bytes, LiveBytes, Evictions int64
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
	// gatherMax is the longest last part Append copies in beside the header;
	// a longer one (a large-object segment) is written from where it lies.
	gatherMax = 64 << 10
)

var (
	errSegRecord     = errors.New("store: segment record does not verify")
	errSegRecordSize = errors.New("store: record larger than the segment log allows")
)

func segName(id uint64) string {
	return fmt.Sprintf("%s%0*d%s", segPrefix, segDigits, id, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, segSuffix); !ok || len(digits) != segDigits {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	return id, err == nil
}

// FrameHead returns the frame header of the record whose payload is parts
// laid end to end.
func FrameHead(parts ...[]byte) (head [FrameHeader]byte) {
	n, sum := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		sum = crc32.Update(sum, crcTable, p)
	}
	binary.BigEndian.PutUint32(head[0:4], uint32(n))
	binary.BigEndian.PutUint32(head[4:8], sum)
	return head
}

// OpenSegLog opens (or initializes) the log on fs, holding at most budget
// bytes of segment files. Segments are replayed oldest first and each
// payload is handed to parse, which answers the record's key and owner word,
// whether it is live, and ok=false when it cannot tell (the record is then
// skipped). A later record supersedes an earlier one under the same key, a
// dead one deletes it, and a segment's scan stops at its first torn or
// corrupt frame, keeping what came before. The oldest segments left with no
// live record are removed, and so is every file on fs that is not a segment:
// the log owns its directory, and what an earlier layout left there is soft
// state too. No file is created until the first Append.
func OpenSegLog(fs FS, budget int64, parse func(payload []byte) (key string, word int64, live, ok bool)) (*SegLog, error) {
	l := &SegLog{fs: fs, budget: budget, segTarget: min(maxSegment, budget/8), index: make(map[string]SegRef)}
	names, err := fs.List("")
	if err != nil {
		return nil, fmt.Errorf("store: scan segment log: %w", err)
	}
	var scanned []*logSegment
	for _, name := range names { // sorted, and ids are zero-padded: oldest first
		id, ok := parseSegName(name)
		if !ok {
			fs.Remove(name) // one that cannot be removed now is tried at the next open
			continue
		}
		l.nextID = max(l.nextID, id+1)
		data, err := ReadAll(fs, name)
		if err != nil {
			data = nil // an unreadable segment indexes nothing and is removed below
		}
		seg := &logSegment{name: name, size: int64(len(data))}
		scanned = append(scanned, seg)
		off := 0
		ReplayFrames(data, func(p []byte) error {
			start := off
			off += FrameHeader + len(p)
			key, word, live, ok := parse(p)
			if !ok {
				return nil
			}
			l.forget(key)
			if live {
				l.index[key] = SegRef{seg: seg, off: uint32(start), n: uint32(off - start), Word: word,
					Head: [FrameHeader]byte(data[start:])}
				l.live += int64(off - start)
			}
			return nil
		})
	}
	for key, ref := range l.index {
		ref.seg.keys = append(ref.seg.keys, key)
	}
	for _, seg := range scanned {
		// With an older segment kept, one without a live record stays too: it
		// may hold the tombstone, or the since-expired successor, of a record
		// in that older one, which the next open would otherwise bring back.
		if len(seg.keys) == 0 && len(l.segs) == 0 {
			fs.Remove(seg.name)
			continue
		}
		seg.base = l.appended
		l.appended += seg.size
		l.bytes += seg.size
		l.segs = append(l.segs, seg)
	}
	l.reclaim()
	return l, nil
}

// Lookup returns where key's record lies.
func (l *SegLog) Lookup(key string) (SegRef, bool) {
	ref, ok := l.index[key]
	return ref, ok
}

// Aging reports whether ref's record sits in the oldest eighth of a full
// log. A segment is reclaimed once the log has grown a budget past its first
// byte, so the age is judged by where the record's segment begins: the entry
// then has an eighth of the budget in appends left. An owner that still uses
// such an entry appends it afresh, which is all the recency a first-in-
// first-out log has.
func (l *SegLog) Aging(ref SegRef) bool {
	return l.appended-ref.seg.base > l.budget-l.budget/8
}

// Append writes one record, its payload given in parts and head their
// FrameHead, and points key at it; the record key had before is superseded.
// The index moves only once the record is whole in the file, so no reader
// can be sent to bytes that are not there, and before the log is brought
// back within budget, so an entry carried forward out of the segment that
// this append reclaims is not counted lost.
func (l *SegLog) Append(key string, word int64, head [FrameHeader]byte, parts ...[]byte) error {
	seg, off, n, err := l.write(head, parts)
	if err == nil {
		l.forget(key)
		l.index[key] = SegRef{seg: seg, off: uint32(off), n: uint32(n), Word: word, Head: head}
		l.live += int64(n)
		seg.keys = append(seg.keys, key)
	}
	l.reclaim()
	return err
}

// Tombstone forgets key and, if it was indexed, appends a record the owner's
// parse will call dead, so the next open does not find the entry again.
func (l *SegLog) Tombstone(key string, head [FrameHeader]byte, parts ...[]byte) {
	if _, ok := l.index[key]; !ok {
		return
	}
	l.forget(key)
	l.write(head, parts)
	l.reclaim()
}

// Forget drops key's index entry if it still is ref: what an owner does with
// a record that failed its read or outlived its use.
func (l *SegLog) Forget(key string, ref SegRef) {
	if l.index[key] == ref {
		l.forget(key)
	}
}

func (l *SegLog) forget(key string) {
	if ref, ok := l.index[key]; ok {
		delete(l.index, key)
		l.live -= int64(ref.n)
	}
}

// write appends one whole record to the active segment, sealing the segment
// first if the record would take it past the target and starting a new one
// when there is none, and returns where the record landed. The header and
// the short parts go out in one Write. A failed or short write leaves a torn
// tail that the rescan stops at, so that segment is sealed too and the next
// record starts another.
func (l *SegLog) write(head [FrameHeader]byte, parts [][]byte) (*logSegment, int64, int, error) {
	if l.closed {
		return nil, 0, 0, ErrClosed
	}
	n := FrameHeader
	for _, p := range parts {
		n += len(p)
	}
	if n-FrameHeader > MaxRecord || int64(n) > l.budget {
		return nil, 0, 0, errSegRecordSize
	}
	if l.active != nil {
		if seg := l.segs[len(l.segs)-1]; seg.size > 0 && seg.size+int64(n) > l.segTarget {
			l.seal()
		}
	}
	if l.active == nil {
		name := segName(l.nextID)
		f, err := l.fs.OpenAppend(name)
		if err != nil {
			return nil, 0, 0, err
		}
		l.nextID++
		l.active = f
		l.segs = append(l.segs, &logSegment{name: name, base: l.appended})
	}
	var tail []byte
	if last := len(parts) - 1; last >= 0 && len(parts[last]) > gatherMax {
		tail, parts = parts[last], parts[:last]
	}
	l.buf = append(l.buf[:0], head[:]...)
	for _, p := range parts {
		l.buf = append(l.buf, p...)
	}
	wrote, err := l.active.Write(l.buf)
	if err == nil && wrote == len(l.buf) && tail != nil {
		var m int
		m, err = l.active.Write(tail)
		wrote += m
	}
	seg := l.segs[len(l.segs)-1]
	off := seg.size
	seg.size += int64(wrote)
	l.bytes += int64(wrote)
	l.appended += int64(wrote)
	if err == nil && wrote != n {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.seal()
	}
	return seg, off, n, err
}

// seal closes the active segment's handle; the file is never opened for
// writing again. Nothing is buffered and the log does not fsync (it is soft
// state, and every read is checksummed), so there is nothing a failed close
// could lose that a crash could not.
func (l *SegLog) seal() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// reclaim removes whole segments, oldest first, until the files fit the
// budget, and with each the index entries that still point into it. The
// active segment is never removed: it alone cannot exceed the budget.
func (l *SegLog) reclaim() {
	sealed := len(l.segs)
	if l.active != nil {
		sealed--
	}
	for ; l.bytes > l.budget && sealed > 0; sealed-- {
		seg := l.segs[0]
		l.segs[0] = nil
		l.segs = l.segs[1:]
		// A file that cannot be removed now is found, and counted, at the
		// next open.
		l.fs.Remove(seg.name)
		l.bytes -= seg.size
		for _, key := range seg.keys {
			if ref, ok := l.index[key]; ok && ref.seg == seg {
				l.forget(key)
				l.evictions++
			}
		}
	}
}

// Read fetches ref's record into buf, which must be at least ref.Len() long
// and is never grown, verifies its frame and returns the payload, which
// aliases buf. The owner still has to compare the key inside the payload with
// the one it asked for. A handle that can read at an offset (a real file,
// MemFS's reader) is asked for exactly the record; FS promises only
// sequential reads, so any other handle is read forward to the record, at
// most one segment's worth.
func (l *SegLog) Read(ref SegRef, buf []byte) ([]byte, error) {
	if len(buf) < int(ref.n) {
		return nil, io.ErrShortBuffer
	}
	f, err := l.fs.Open(ref.seg.name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec := buf[:ref.n]
	if ra, ok := f.(io.ReaderAt); ok {
		var n int
		if n, err = ra.ReadAt(rec, int64(ref.off)); n == len(rec) {
			err = nil // a record that ends the file may come with io.EOF
		}
	} else if _, err = io.CopyN(io.Discard, f, int64(ref.off)); err == nil {
		_, err = io.ReadFull(f, rec)
	}
	if err != nil {
		return nil, err
	}
	if payload := rec[FrameHeader:]; [FrameHeader]byte(rec) == FrameHead(payload) {
		return payload, nil
	}
	return nil, errSegRecord
}

// Close closes the active segment. The log still answers Read afterwards but
// appends nothing more.
func (l *SegLog) Close() error {
	l.closed = true
	return l.seal()
}

// Count returns how many indexed keys match: what an owner that keeps two
// kinds of record in one log uses to count one of them.
func (l *SegLog) Count(match func(key string) bool) int {
	n := 0
	for key := range l.index {
		if match(key) {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the log.
func (l *SegLog) Stats() SegLogStats {
	return SegLogStats{Entries: len(l.index), Segments: len(l.segs), Bytes: l.bytes, LiveBytes: l.live, Evictions: l.evictions}
}
