package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// SegLog is a keyed, append-only log of soft-state records on an FS: what the
// disk cache tier and the large-object slab keep their bodies in. A record is
// the WAL's frame (FrameHeader: length, CRC-32C) around a payload only the
// owner can parse, appended to the newest seg-NNNNNNNNNN.log file and never
// modified afterwards, so a reader is only ever sent to bytes that are
// complete; every read verifies the frame. The index files each record under
// a 64-bit hash of its key that the owner computes, seeded so that no client
// can choose keys that collide, and holds no key: per record only the
// segment, offset, length, frame header and one word that is the owner's, in
// a table off the Go heap (segIndex). Two keys with one hash share an entry,
// so the later supersedes the earlier, which is then a miss: an owner
// compares the key inside the record it reads, and serves another key's bytes
// never. The index is rebuilt by replaying the segments at open. Space is
// reclaimed a whole segment at a time, oldest first; superseded records,
// tombstones and dead entries go with the segment that holds them. Nothing is
// fsynced.
//
// Each segment file keeps one read handle from the moment it is created or
// replayed, before any index entry points into it, until it is reclaimed or
// the log closes, so a read is one positional read on a handle the log
// already holds. A read that finds its handle closed opens the file by name,
// which fails once the file is removed: a reader sent to a reclaimed segment
// gets its record's bytes or an error, never another record's.
//
// A SegLog does not lock: its owner serialises every method but Read, which
// touches only the filesystem and the handle its segment was given at birth.
type SegLog struct {
	fs        FS
	budget    int64
	segTarget int64

	index  segIndex
	segs   []*logSegment // oldest first, by number
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
	id   uint64 // the number in its name
	base int64  // log position of the file's first byte
	size int64
	// keys hashes every record in the file that the index pointed at when
	// it was written: the entries to drop when the file is reclaimed.
	keys []uint64
	// rd is the file's read handle, set before the segment is published and
	// never reassigned, closed when the file is reclaimed or the log closes.
	// nil when the FS's handle cannot read at an offset, or the open failed:
	// every Read of the segment then opens the file.
	rd readerAtCloser
}

// readerAtCloser is a read handle a segment keeps.
type readerAtCloser interface {
	io.ReaderAt
	io.Closer
}

// openReader opens the segment's read handle, if the FS hands out one that
// reads at an offset; any other is closed again. It returns what it read of
// the file when whole is set (the replay's scan), nil otherwise.
func (seg *logSegment) openReader(fs FS, whole bool) ([]byte, error) {
	f, err := fs.Open(seg.name)
	if err != nil {
		return nil, err
	}
	var data []byte
	if whole {
		data, err = readAll(f)
	}
	if rd, ok := f.(readerAtCloser); ok && err == nil {
		seg.rd = rd
	} else {
		f.Close()
	}
	return data, err
}

// closeReader closes the segment's read handle; a Read already under way on
// it finishes, one that starts later opens the file by name.
func (seg *logSegment) closeReader() {
	if seg.rd != nil {
		seg.rd.Close()
	}
}

// SegRef locates one record. Word is the owner's (the disk tier's expiry);
// Head is the record's frame header: two records under one key hash with the
// same Head are the same bytes.
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
// IndexBytes is the memory the index maps.
type SegLogStats struct {
	Entries, Segments                       int
	Bytes, LiveBytes, Evictions, IndexBytes int64
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
// payload is handed to parse, which answers the hash of the record's key, its
// owner word, whether it is live, and ok=false when it cannot tell (the
// record is then skipped). A later record supersedes an earlier one under the
// same hash, a dead one deletes it, and a segment's scan stops at its first
// torn or corrupt frame, keeping what came before. The oldest segments left
// with no live record are removed, and so is every file on fs that is not a
// segment: the log owns its directory, and what an earlier layout left there
// is soft state too. No file is created until the first Append.
func OpenSegLog(fs FS, budget int64, parse func(payload []byte) (key uint64, word int64, live, ok bool)) (*SegLog, error) {
	l := &SegLog{fs: fs, budget: budget, segTarget: min(maxSegment, budget/8)}
	// Nothing but the log reaches its index, so the table goes back to the
	// system with the log.
	runtime.SetFinalizer(l, func(l *SegLog) { l.index.free() })
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
		seg := &logSegment{name: name, id: id}
		data, err := seg.openReader(fs, true)
		if err != nil {
			data = nil // an unreadable segment indexes nothing and is removed below
		}
		seg.size = int64(len(data))
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
				l.file(indexSlot{hash: key, seg: id, off: uint32(start), n: uint32(off - start), word: word,
					head: [FrameHeader]byte(data[start:])})
			}
			return nil
		})
	}
	l.index.each(func(s indexSlot) {
		seg := segmentNumbered(scanned, s.seg)
		seg.keys = append(seg.keys, s.hash)
	})
	for _, seg := range scanned {
		// With an older segment kept, one without a live record stays too: it
		// may hold the tombstone, or the since-expired successor, of a record
		// in that older one, which the next open would otherwise bring back.
		if len(seg.keys) == 0 && len(l.segs) == 0 {
			fs.Remove(seg.name)
			seg.closeReader()
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

// segmentNumbered returns the segment of segs, which are in order, that an
// index entry names by its number.
func segmentNumbered(segs []*logSegment, id uint64) *logSegment {
	i, _ := slices.BinarySearchFunc(segs, id, func(seg *logSegment, id uint64) int {
		return cmp.Compare(seg.id, id)
	})
	return segs[i]
}

// Lookup returns where the record filed under hash, its key's, lies.
func (l *SegLog) Lookup(hash uint64) (SegRef, bool) {
	s, ok := l.index.get(hash)
	if !ok {
		return SegRef{}, false
	}
	return SegRef{seg: segmentNumbered(l.segs, s.seg), off: s.off, n: s.n, Word: s.word, Head: s.head}, true
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
// FrameHead, and files it under hash, its key's; the record filed there
// before is superseded. The index moves only once the record is whole in the
// file, so no reader can be sent to bytes that are not there, and before the
// log is brought back within budget, so an entry carried forward out of the
// segment that this append reclaims is not counted lost.
func (l *SegLog) Append(hash uint64, word int64, head [FrameHeader]byte, parts ...[]byte) error {
	seg, off, n, err := l.write(head, parts)
	if err == nil {
		l.forget(hash)
		if l.file(indexSlot{hash: hash, seg: seg.id, off: uint32(off), n: uint32(n), word: word, head: head}) {
			seg.keys = append(seg.keys, hash)
		}
	}
	l.reclaim()
	return err
}

// file indexes one record, unless the index cannot grow: the record is then
// a miss, as if it had been reclaimed.
func (l *SegLog) file(s indexSlot) bool {
	if !l.index.put(s) {
		return false
	}
	l.live += int64(s.n)
	return true
}

// Tombstone forgets hash and, if it was indexed, appends a record the
// owner's parse will call dead, so the next open does not find the entry
// again.
func (l *SegLog) Tombstone(hash uint64, head [FrameHeader]byte, parts ...[]byte) {
	if !l.forget(hash) {
		return
	}
	l.write(head, parts)
	l.reclaim()
}

// Forget drops hash's index entry if it still is ref: what an owner does
// with a record that failed its read or outlived its use.
func (l *SegLog) Forget(hash uint64, ref SegRef) {
	if cur, ok := l.Lookup(hash); ok && cur == ref {
		l.forget(hash)
	}
}

// forget drops hash's index entry and reports whether there was one.
func (l *SegLog) forget(hash uint64) bool {
	s, ok := l.index.del(hash)
	l.live -= int64(s.n)
	return ok
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
		seg := &logSegment{name: name, id: l.nextID - 1, base: l.appended}
		seg.openReader(l.fs, false) // without a handle, each Read opens the file
		l.segs = append(l.segs, seg)
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
// could lose that a crash could not. The segment's key list grows no more,
// so it gives back the room its appends left spare.
func (l *SegLog) seal() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	seg := l.segs[len(l.segs)-1]
	seg.keys = slices.Clone(seg.keys)
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
		seg.closeReader()
		l.bytes -= seg.size
		for _, key := range seg.keys {
			if s, ok := l.index.get(key); ok && s.seg == seg.id {
				l.forget(key)
				l.evictions++
			}
		}
	}
}

// Read fetches ref's record into buf, which must be at least ref.Len() long
// and is never grown, verifies its frame and returns the payload, which
// aliases buf. The owner still has to compare the key inside the payload with
// the one it asked for. The record is read at its offset through the
// segment's handle; a segment without one (FS promises only sequential
// reads) or whose handle is closed has its file opened for this read, and a
// handle that cannot read at an offset is read forward to the record, at
// most one segment's worth.
func (l *SegLog) Read(ref SegRef, buf []byte) ([]byte, error) {
	if len(buf) < int(ref.n) {
		return nil, io.ErrShortBuffer
	}
	rec := buf[:ref.n]
	err := os.ErrClosed
	if rd := ref.seg.rd; rd != nil {
		err = readAt(rd, rec, int64(ref.off))
	}
	if errors.Is(err, os.ErrClosed) {
		err = l.readOpening(ref, rec)
	}
	if err != nil {
		return nil, err
	}
	if payload := rec[FrameHeader:]; [FrameHeader]byte(rec) == FrameHead(payload) {
		return payload, nil
	}
	return nil, errSegRecord
}

// readAt fills rec from off; a record that ends the file may come with
// io.EOF.
func readAt(ra io.ReaderAt, rec []byte, off int64) error {
	n, err := ra.ReadAt(rec, off)
	if n == len(rec) {
		return nil
	}
	return err
}

// readOpening is Read on a handle of its own: a segment without a kept
// handle, or one read after the log closed.
func (l *SegLog) readOpening(ref SegRef, rec []byte) error {
	f, err := l.fs.Open(ref.seg.name)
	if err != nil {
		return err
	}
	defer f.Close()
	if ra, ok := f.(io.ReaderAt); ok {
		return readAt(ra, rec, int64(ref.off))
	}
	if _, err = io.CopyN(io.Discard, f, int64(ref.off)); err != nil {
		return err
	}
	_, err = io.ReadFull(f, rec)
	return err
}

// Close closes the active segment and every segment's read handle. The log
// still answers Lookup and Read afterwards, opening a segment per read, but
// appends nothing more.
func (l *SegLog) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	for _, seg := range l.segs {
		seg.closeReader()
	}
	return l.seal()
}

// Count returns how many indexed records carry an owner word that matches:
// what an owner that keeps two kinds of record in one log uses to count one
// of them.
func (l *SegLog) Count(match func(word int64) bool) int {
	n := 0
	l.index.each(func(s indexSlot) {
		if match(s.word) {
			n++
		}
	})
	return n
}

// Stats returns a snapshot of the log.
func (l *SegLog) Stats() SegLogStats {
	return SegLogStats{Entries: l.index.count, Segments: len(l.segs), Bytes: l.bytes, LiveBytes: l.live,
		Evictions: l.evictions, IndexBytes: l.index.bytes()}
}
