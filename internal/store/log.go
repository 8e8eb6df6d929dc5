package store

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// LogConfig tunes the log-structured engine.
type LogConfig struct {
	// Quota is the per-site byte quota; zero or negative means unlimited.
	Quota int64
	// CompactBytes triggers the snapshot/truncate cycle once the active
	// log exceeds this many bytes; zero means 4 MiB, negative disables
	// automatic compaction.
	CompactBytes int64
}

// LogStats reports engine internals for diagnostics, tests, and the
// persist benchmark.
type LogStats struct {
	// Replayed is the number of records replayed from the log at open.
	Replayed int
	// ActiveSeq is the active WAL file's sequence number.
	ActiveSeq uint64
	// WALBytes is the size of the active WAL file.
	WALBytes int64
	// Syncs counts fsyncs issued by the active WAL (group commit batches
	// many records per sync).
	Syncs int64
	// Compactions counts completed snapshot/truncate cycles.
	Compactions int64
	// Appends counts records reserved in the WAL across the engine's
	// lifetime (puts, deletes, fence raises, fenced puts).
	Appends int64
	// FenceRejects counts writes refused because their (token, holder)
	// pair fell below a guard's durable fence floor.
	FenceRejects int64
}

// Log is the hard-state engine: a site-partitioned key-value map with
// per-site byte quotas and durable fence floors. Every mutation is appended
// to a CRC-framed write-ahead log before it is acknowledged, the full map
// lives in an in-memory index rebuilt by replay at open, and a
// snapshot/truncate cycle bounds the log (the active WAL rolls to a fresh
// file, the whole index is written as a snapshot segment, and older files
// are deleted).
//
// Recovery never appends to an existing log file: a crash can leave a torn
// tail, so each open starts a fresh WAL file and replays every older one,
// stopping cleanly at the last complete record. Replaying a record that is
// also captured by a snapshot is harmless — records are idempotent
// last-writer-wins mutations applied in log order.
type Log struct {
	fs  FS
	cfg LogConfig

	mu          sync.Mutex
	t           *table
	wal         *WAL
	walSeq      uint64
	closed      bool
	compacting  bool
	replayed    int
	compactions int64
	priorSyncs  int64 // syncs from WALs already rolled away
	appends     int64
	fenceRejs   int64
}

func walName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.seg", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// OpenLog opens (or initializes) the engine rooted at fs, rebuilding the
// in-memory index by loading the newest complete snapshot and replaying
// every surviving WAL file in order.
func OpenLog(fs FS, cfg LogConfig) (*Log, error) {
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 4 << 20
	}
	l := &Log{fs: fs, cfg: cfg, t: newTable()}

	names, err := fs.List("")
	if err != nil {
		return nil, fmt.Errorf("store: list log dir: %w", err)
	}
	var snaps, wals []uint64
	maxSeq := uint64(0)
	for _, name := range names {
		if seq, ok := parseSeq(name, "snap-", ".seg"); ok {
			snaps = append(snaps, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			wals = append(wals, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}

	// Load the newest snapshot that reads back completely; an unreadable
	// or torn snapshot is skipped (its WAL files were only deleted after a
	// later snapshot became durable, so older files still cover the data).
	for i := len(snaps) - 1; i >= 0; i-- {
		if l.loadSnapshot(snaps[i]) {
			break
		}
	}

	// Replay every WAL ascending. List is sorted and the names zero-pad
	// the sequence number, so wals is already in order.
	for _, seq := range wals {
		data, err := ReadAll(fs, walName(seq))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("store: read %s: %w", walName(seq), err)
		}
		n := l.applyFrames(data)
		l.replayed += n
	}

	// Never append to a possibly-torn file: start a fresh WAL.
	l.walSeq = maxSeq + 1
	wal, err := openWAL(fs, walName(l.walSeq), 0)
	if err != nil {
		return nil, err
	}
	l.wal = wal
	return l, nil
}

// loadSnapshot loads snapshot seq into the (empty) table; it reports
// whether the snapshot was complete and valid.
func (l *Log) loadSnapshot(seq uint64) bool {
	data, err := ReadAll(l.fs, snapName(seq))
	if err != nil {
		return false
	}
	t := newTable()
	valid := true
	off, _ := ReplayFrames(data, func(payload []byte) error {
		// A snapshot is puts plus fence-floor records — never deletes or
		// fenced puts, which only appear in WALs.
		rec, err := DecodeLogRecord(payload)
		if err != nil || (rec.Op != opPut && rec.Op != opFence) {
			valid = false
			return fmt.Errorf("stop")
		}
		if rec.Op == opFence {
			t.raiseFence(rec.Site, rec.Guard, rec.Holder, rec.Token)
		} else {
			t.put(rec.Site, rec.Key, rec.Value, 0)
		}
		return nil
	})
	if !valid || off != len(data) {
		return false
	}
	l.t = t
	return true
}

// applyFrames replays one WAL file's bytes into the table, stopping
// cleanly at the first torn or corrupt record; it returns how many records
// were applied.
func (l *Log) applyFrames(data []byte) int {
	n := 0
	ReplayFrames(data, func(payload []byte) error {
		rec, err := DecodeLogRecord(payload)
		if err != nil {
			return err // stops the scan; the prefix stays applied
		}
		switch rec.Op {
		case opPut:
			// Replay bypasses the quota: the record was accepted before
			// the crash and must recover exactly.
			l.t.put(rec.Site, rec.Key, rec.Value, 0)
		case opDelete:
			l.t.del(rec.Site, rec.Key)
		case opFencedPut:
			l.t.put(rec.Site, rec.Key, rec.Value, 0)
			l.t.raiseFence(rec.Site, rec.Guard, rec.Holder, rec.Token)
		case opFence:
			l.t.raiseFence(rec.Site, rec.Guard, rec.Holder, rec.Token)
		}
		n++
		return nil
	})
	return n
}

// Get returns the value stored under key in site's partition.
func (l *Log) Get(site, key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.get(site, key)
}

// Put stores key=value, refused with ErrQuotaExceeded before anything is
// logged when the site's quota would be exceeded. The mutation is applied
// to the index and enqueued in the WAL under one lock (so log order matches
// apply order), then the caller waits for group commit to make it durable
// before it is acknowledged.
func (l *Log) Put(site, key, value string) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.t.put(site, key, value, l.cfg.Quota); err != nil {
		l.mu.Unlock()
		return err
	}
	wal := l.wal
	seq, err := wal.Reserve(encodePut(site, key, value))
	l.appends++
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := wal.WaitDurable(seq); err != nil {
		l.failStop(err)
		return err
	}
	l.maybeCompact()
	return nil
}

// failStop abandons the engine after a WAL write or sync failure: the
// in-memory index already holds mutations that never became durable, so
// serving reads from it would diverge from what a restart recovers. The
// engine fails whole — every subsequent operation returns ErrClosed — and
// the next open replays exactly the durable prefix.
func (l *Log) failStop(err error) {
	if err == ErrClosed {
		return // a crash/shutdown race, not a broken disk
	}
	l.Abandon()
}

// Delete removes key from site's partition.
func (l *Log) Delete(site, key string) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.t.del(site, key)
	wal := l.wal
	seq, err := wal.Reserve(encodeDelete(site, key))
	l.appends++
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := wal.WaitDurable(seq); err != nil {
		l.failStop(err)
		return err
	}
	l.maybeCompact()
	return nil
}

// Keys returns site's keys, sorted.
func (l *Log) Keys(site string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.keys(site)
}

// Range visits every pair in order; iteration stops when fn returns false.
func (l *Log) Range(fn func(site, key, value string) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.rangeAll(fn)
}

// Close flushes pending records; the engine refuses further writes.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	wal := l.wal
	l.mu.Unlock()
	return wal.Close()
}

// Abandon drops the engine without flushing, as an abrupt process death
// would: unacknowledged records are lost, in-flight writers fail with
// ErrClosed, the in-memory index is discarded, and the files keep exactly
// the bytes already written. The cluster harness calls this on crash.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.t = newTable()
	wal := l.wal
	l.mu.Unlock()
	wal.abandon()
}

// Stats returns a snapshot of engine counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Replayed:     l.replayed,
		ActiveSeq:    l.walSeq,
		WALBytes:     l.wal.Size(),
		Syncs:        l.priorSyncs + l.wal.Syncs(),
		Compactions:  l.compactions,
		Appends:      l.appends,
		FenceRejects: l.fenceRejs,
	}
}

// maybeCompact runs the snapshot/truncate cycle when the active WAL has
// outgrown the threshold. It runs inline on the writer's goroutine — no
// background work — so simulated clusters stay deterministic.
func (l *Log) maybeCompact() {
	if l.cfg.CompactBytes < 0 {
		return
	}
	l.mu.Lock()
	if l.closed || l.compacting || l.wal.Size() < l.cfg.CompactBytes {
		l.mu.Unlock()
		return
	}
	l.compacting = true
	old := l.wal
	oldSeq := l.walSeq
	newSeq := l.walSeq + 1

	// The snapshot captures the index exactly as of the roll point: every
	// record enqueued so far has already been applied to the table.
	var snap []byte
	l.t.rangeAll(func(site, key, value string) bool {
		snap = AppendFrame(snap, encodePut(site, key, value))
		return true
	})
	l.t.rangeFences(func(site, guard, holder string, token uint64) bool {
		snap = AppendFrame(snap, encodeFence(site, guard, holder, token))
		return true
	})
	wal, err := openWAL(l.fs, walName(newSeq), 0)
	if err != nil {
		l.compacting = false
		l.mu.Unlock()
		return
	}
	l.wal = wal
	l.walSeq = newSeq
	l.mu.Unlock()

	// Flush stragglers into the old file (they are already in the
	// snapshot; replaying them again is idempotent), then persist the
	// snapshot atomically (WriteAtomic fsyncs the file and the directory
	// entry). Old files are deleted only after the snapshot is durably in
	// place — on any failure they simply survive until the next cycle,
	// and recovery replays them.
	syncs := int64(0)
	completed := false
	if err := old.Close(); err == nil || err == ErrClosed {
		syncs = old.Syncs()
		if err := WriteAtomic(l.fs, snapName(newSeq), snap); err == nil {
			completed = true
			if names, err := l.fs.List(""); err == nil {
				for _, name := range names {
					if seq, ok := parseSeq(name, "wal-", ".log"); ok && seq <= oldSeq {
						l.fs.Remove(name)
					}
					if seq, ok := parseSeq(name, "snap-", ".seg"); ok && seq < newSeq {
						l.fs.Remove(name)
					}
				}
			}
		}
	}

	l.mu.Lock()
	l.compacting = false
	if completed {
		l.compactions++
	}
	l.priorSyncs += syncs
	l.mu.Unlock()
}
