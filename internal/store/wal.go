package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// ErrClosed is returned by operations on a closed or abandoned engine.
var ErrClosed = errors.New("store: closed")

// MaxRecord bounds a single record; a length field beyond it is treated as
// a torn/corrupt tail, not an allocation request.
const MaxRecord = 16 << 20

// FrameHeader is the per-record framing overhead: a 4-byte big-endian
// payload length followed by a 4-byte CRC-32C of the payload.
const FrameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one CRC-framed record to dst and returns it.
func AppendFrame(dst, payload []byte) []byte {
	head := FrameHead(payload)
	return append(append(dst, head[:]...), payload...)
}

// ReplayFrames scans the CRC-framed records in data, invoking fn for each
// complete, checksummed record in order. Scanning stops at the first torn
// or corrupt frame — the unsynced tail a crash can leave behind — which is
// not an error: recovery resumes from the last durable prefix. It returns
// the offset of the end of the valid prefix and the first error fn
// returned (which also stops the scan).
func ReplayFrames(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for {
		if len(data)-off < FrameHeader {
			return off, nil // torn or clean end mid-header
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecord || len(data)-off-FrameHeader < n {
			return off, nil // torn length or torn payload
		}
		payload := data[off+FrameHeader : off+FrameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, nil // corrupt payload
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += FrameHeader + n
	}
}

// WAL is an append-only write-ahead log of CRC-framed records with group
// commit: concurrent appenders enqueue records under the owner's lock (so
// log order matches apply order), then wait for durability together — the
// first waiter becomes the flusher, writes every pending record, and pays
// one fsync for the whole batch.
type WAL struct {
	fs   FS
	name string

	mu       sync.Mutex
	cond     *sync.Cond
	f        File
	pending  [][]byte // enqueued frames not yet written
	nextSeq  uint64   // seq assigned to the next enqueued record
	durable  uint64   // all records with seq <= durable are synced
	flushing bool
	closed   bool
	err      error // sticky write/sync error: the log is broken
	size     int64 // bytes in the file (durable + in-flight writes)
	syncs    int64
	records  int64
}

// openWAL opens name for appending (creating it if missing). size is the
// current valid length of the file as determined by replay.
func openWAL(fs FS, name string, size int64) (*WAL, error) {
	f, err := fs.OpenAppend(name)
	if err != nil {
		return nil, fmt.Errorf("store: open wal %s: %w", name, err)
	}
	// Make the file's directory entry durable now: records fsynced into a
	// file whose entry is lost to a power failure would be lost with it.
	if err := fs.SyncDir(name); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: sync wal dir %s: %w", name, err)
	}
	w := &WAL{fs: fs, name: name, f: f, size: size}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Reserve enqueues one record and returns its sequence ticket. The caller
// holds whatever lock orders its state mutations; calling Reserve under
// that same lock guarantees the log order matches the apply order. The
// record is not durable until WaitDurable(seq) returns nil.
func (w *WAL) Reserve(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	w.pending = append(w.pending, AppendFrame(nil, payload))
	w.nextSeq++
	return w.nextSeq, nil
}

// WaitDurable blocks until every record up to and including seq is written
// and synced (or the log fails). Waiters cooperate: one becomes the
// flusher for the whole pending batch while the rest sleep.
func (w *WAL) WaitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < seq {
		if w.err != nil {
			return w.err
		}
		if w.closed {
			return ErrClosed
		}
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
	return w.err
}

// flushLocked writes pending records and syncs; called with w.mu held, it
// releases the lock around the IO. The whole pending queue goes out under
// a single sync.
func (w *WAL) flushLocked() {
	take := len(w.pending)
	if take == 0 {
		return
	}
	var buf []byte
	for _, frame := range w.pending[:take] {
		buf = append(buf, frame...)
	}
	w.pending = w.pending[take:]
	target := w.durable + uint64(take)
	w.flushing = true
	f := w.f
	w.mu.Unlock()

	_, err := f.Write(buf)
	if err == nil {
		err = f.Sync()
	}

	w.mu.Lock()
	w.flushing = false
	if err != nil {
		w.err = err
	} else {
		w.size += int64(len(buf))
		w.syncs++
		w.records += int64(take)
	}
	w.durable = target
	w.cond.Broadcast()
}

// Sync flushes every pending record durably.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.nextSeq
	w.mu.Unlock()
	return w.WaitDurable(seq)
}

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Syncs returns how many fsyncs the log has issued; with group commit this
// is far below the record count under concurrent writers.
func (w *WAL) Syncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Close flushes pending records and closes the file.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil && err != ErrClosed {
		w.abandon()
		return err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	f := w.f
	w.cond.Broadcast()
	w.mu.Unlock()
	return f.Close()
}

// abandon drops the log without flushing, as an abrupt process death
// would: pending (unacknowledged) records are lost, waiters fail with
// ErrClosed, and the file keeps exactly the bytes already written.
func (w *WAL) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.pending = nil
	w.cond.Broadcast()
}
