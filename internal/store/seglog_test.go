package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// The segment log's fault suite, run once for both of its owners' record
// shapes: a disk-tier demotion is a short record written with one Write, a
// large-object segment is 256 KiB written beside its header with two. The
// test owner's payload is byte(len(key)) key body; a record with no body is
// dead (a tombstone), and the owner word is the payload's length.

// isSegment reports whether name is one a SegLog gives its files.
func isSegment(name string) bool {
	_, ok := parseSegName(name)
	return ok
}

type logShape struct {
	name   string
	body   int   // bytes of body in each record
	budget int64 // room for many records, so nothing is reclaimed unasked
}

var logShapes = []logShape{{"small", 100, 1 << 20}, {"256KiB", 256 << 10, 16 << 20}}

// logSplit reads the test owner's payload: its key, its word, and whether
// it is live.
func logSplit(p []byte) (string, int64, bool, bool) {
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", 0, false, false
	}
	return string(p[1 : 1+int(p[0])]), int64(len(p)), len(p) > 1+int(p[0]), true
}

// logSeed seeds logKey, the test owner's key hash.
var logSeed = maphash.MakeSeed()

func logKey(key string) uint64 { return maphash.String(logSeed, key) }

func logParse(p []byte) (uint64, int64, bool, bool) {
	key, word, live, ok := logSplit(p)
	return logKey(key), word, live, ok
}

func logKeyPart(key string) []byte { return append([]byte{byte(len(key))}, key...) }

// logBody is the body stored under key at version v: a read that returns
// anything else was sent to another record's bytes.
func logBody(key string, v, n int) []byte {
	body := bytes.Repeat([]byte{byte(v)}, n)
	copy(body, key+"|"+strconv.Itoa(v)+"|")
	return body
}

func logPut(l *SegLog, key string, body []byte) error {
	kp := logKeyPart(key)
	return l.Append(logKey(key), int64(len(kp)+len(body)), FrameHead(kp, body), kp, body)
}

func logKill(l *SegLog, key string) {
	kp := logKeyPart(key)
	l.Tombstone(logKey(key), FrameHead(kp), kp)
}

// logGet is an owner's read: the record the index names, verified by the
// log, accepted only under its own key, dropped when it fails.
func logGet(l *SegLog, key string) ([]byte, bool) {
	ref, ok := l.Lookup(logKey(key))
	if !ok {
		return nil, false
	}
	p, err := l.Read(ref, make([]byte, ref.Len()))
	if got, word, live, ok := logSplit(p); err != nil || !ok || !live || got != key || word != ref.Word {
		l.Forget(logKey(key), ref)
		return nil, false
	}
	return p[1+len(key):], true
}

func openSegLog(t testing.TB, fs FS, budget int64) *SegLog {
	t.Helper()
	l, err := OpenSegLog(fs, budget, logParse)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func wantLogBody(t *testing.T, l *SegLog, key string, want []byte) {
	t.Helper()
	if got, ok := logGet(l, key); !ok || !bytes.Equal(got, want) {
		t.Errorf("%s: read %d bytes, hit %v; want the %d stored", key, len(got), ok, len(want))
	}
}

func wantLogMiss(t *testing.T, l *SegLog, key string) {
	t.Helper()
	if got, ok := logGet(l, key); ok {
		t.Errorf("%s: served %d bytes, want a miss", key, len(got))
	}
}

// logUsage is what the log's files really occupy; files that are not
// segments are not counted.
func logUsage(t testing.TB, fs FS) (files int, bytes int64) {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !isSegment(name) {
			continue
		}
		data, err := ReadAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		files++
		bytes += int64(len(data))
	}
	return files, bytes
}

// wantLogAccounted: the stats are what is on disk, within budget.
func wantLogAccounted(t *testing.T, l *SegLog, fs FS, when string) {
	t.Helper()
	files, onDisk := logUsage(t, fs)
	if st := l.Stats(); st.Bytes != onDisk || st.Segments != files || st.Bytes > l.budget || st.LiveBytes > st.Bytes || st.LiveBytes < 0 || st.Entries != l.index.count {
		t.Fatalf("%s: stats %+v, budget %d; on disk %d bytes in %d files", when, st, l.budget, onDisk, files)
	}
}

// cutFS is an FS whose appends fail once `left` more bytes have been written
// (-1: writes pass), however many Writes that takes.
type cutFS struct {
	FS
	left int
}

type cutFile struct {
	File
	fs *cutFS
}

func (f *cutFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	return cutFile{file, f}, err
}

func (f cutFile) Write(p []byte) (int, error) {
	if f.fs.left < 0 {
		return f.File.Write(p)
	}
	if len(p) <= f.fs.left {
		f.fs.left -= len(p)
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.fs.left])
	f.fs.left = -1
	return n, errors.New("disk full")
}

// seqFS hands out read handles that can only read forward, which is all FS
// promises (the benchmark's tracing wrapper is one such).
type seqFS struct{ FS }

func (f seqFS) Open(name string) (io.ReadCloser, error) {
	rc, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ io.ReadCloser }{rc}, nil
}

// TestSegLogTornTail truncates a segment's last record the way a crash
// mid-write (at the rescan) or a failed write (on a live log) leaves it — at
// every byte of a short record, and for a long one at every byte of its
// header and key, either side of the seam between its two Writes, and in
// strides through the body: every earlier record is served, the torn one is a
// miss, the next append lands in a new segment, and a reopen agrees. Through
// forward-only handles too.
func TestSegLogTornTail(t *testing.T) {
	for _, shape := range logShapes {
		bodies := [][]byte{logBody("k1", 1, shape.body), logBody("k2", 2, shape.body), logBody("k3", 3, shape.body), logBody("k4", 4, shape.body)}
		whole := NewMemFS()
		l := openSegLog(t, whole, shape.budget)
		logPut(l, "k1", bodies[0])
		logPut(l, "k2", bodies[1])
		before := int(l.Stats().Bytes)
		if err := logPut(l, "k3", bodies[2]); err != nil {
			t.Fatal(err)
		}
		data, _ := ReadAll(whole, segName(0))
		if len(data) != int(l.Stats().Bytes) || before == 0 {
			t.Fatalf("%s: segment is %d bytes, stats say %d (%d before the last record)", shape.name, len(data), l.Stats().Bytes, before)
		}
		check := func(t *testing.T, l *SegLog, fs FS, cut int) {
			t.Helper()
			wantLogBody(t, l, "k1", bodies[0])
			wantLogBody(t, l, "k2", bodies[1])
			wantLogMiss(t, l, "k3")
			if err := logPut(l, "k4", bodies[3]); err != nil {
				t.Fatal(err)
			}
			wantLogBody(t, l, "k4", bodies[3])
			wantLogAccounted(t, l, fs, "after the next append")
			if torn, _ := ReadAll(fs, segName(0)); len(torn) != cut || l.Stats().Segments != 2 {
				t.Errorf("the torn segment is %d bytes of %d files, want it left at %d beside a new one", len(torn), l.Stats().Segments, cut)
			}
			re := openSegLog(t, seqFS{fs}, shape.budget)
			wantLogBody(t, re, "k1", bodies[0])
			wantLogBody(t, re, "k2", bodies[1])
			wantLogMiss(t, re, "k3")
			wantLogBody(t, re, "k4", bodies[3])
			if re.Stats().Entries != 3 {
				t.Errorf("reopen indexed %d entries, want 3", re.Stats().Entries)
			}
		}
		for cut := before; cut < len(data); cut++ {
			if at := cut - before; shape.body > 1000 && at > FrameHeader+8 && at < len(data)-before-3 && at%32771 != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/rescan/%d", shape.name, cut-before), func(t *testing.T) {
				fs := NewMemFS()
				mustWrite(t, fs, segName(0), data[:cut])
				check(t, openSegLog(t, fs, shape.budget), fs, cut)
			})
			t.Run(fmt.Sprintf("%s/failed write/%d", shape.name, cut-before), func(t *testing.T) {
				fs := &cutFS{FS: NewMemFS(), left: -1}
				l := openSegLog(t, fs, shape.budget)
				logPut(l, "k1", bodies[0])
				logPut(l, "k2", bodies[1])
				fs.left = cut - before
				if err := logPut(l, "k3", bodies[2]); err == nil {
					t.Fatal("the cut write reported success")
				}
				if st := l.Stats(); st.Bytes != int64(cut) || st.Entries != 2 {
					t.Errorf("after the failed write: %+v, want %d bytes and 2 entries", st, cut)
				}
				check(t, l, fs, cut)
			})
		}
	}
}

// TestSegLogBitFlipMidSegment: one flipped bit in the middle record of a
// segment. At the rescan the records before it survive and the rest of that
// segment is dropped (the scan cannot trust anything past a bad frame); on a
// live log, whose index already knows where each record starts, a read of
// the flipped record fails, Forget drops only that entry, and its neighbours
// still read.
func TestSegLogBitFlipMidSegment(t *testing.T) {
	for _, shape := range logShapes {
		bodies := [][]byte{logBody("k1", 1, shape.body), logBody("k2", 2, shape.body), logBody("k3", 3, shape.body)}
		fs := NewMemFS()
		l := openSegLog(t, fs, shape.budget)
		logPut(l, "k1", bodies[0])
		start := int(l.Stats().Bytes)
		logPut(l, "k2", bodies[1])
		end := int(l.Stats().Bytes)
		logPut(l, "k3", bodies[2])
		data, _ := ReadAll(fs, segName(0))
		for _, at := range []int{start, start + 5, start + FrameHeader + 1, (start + end) / 2, end - 1} {
			flipped := append([]byte(nil), data...)
			flipped[at] ^= 0x10
			mustWrite(t, fs, segName(0), flipped)

			wantLogBody(t, l, "k1", bodies[0])
			wantLogMiss(t, l, "k2")
			wantLogBody(t, l, "k3", bodies[2])
			if l.Stats().Entries != 2 {
				t.Errorf("%s, flip at %d: live log holds %d entries, want 2", shape.name, at, l.Stats().Entries)
			}
			re := openSegLog(t, fs, shape.budget)
			wantLogBody(t, re, "k1", bodies[0])
			wantLogMiss(t, re, "k2")
			wantLogMiss(t, re, "k3")

			mustWrite(t, fs, segName(0), data)
			l = openSegLog(t, fs, shape.budget)
		}
	}
}

// TestSegLogBudgetHolds: after every append the files fit the budget and the
// stats are exactly what is on disk; whatever was appended last reads back. A
// budget below one record stores nothing and creates nothing, and a budget
// lowered between opens is honoured at the open.
func TestSegLogBudgetHolds(t *testing.T) {
	for _, shape := range logShapes {
		budget := int64(6*shape.body + shape.body/2)
		fs := NewMemFS()
		l := openSegLog(t, fs, budget)
		rng := rand.New(rand.NewSource(int64(shape.body)))
		for i := 0; i < 40; i++ {
			key := "k" + strconv.Itoa(i%25)
			body := logBody(key, i, 1+rng.Intn(shape.body))
			if err := logPut(l, key, body); err != nil {
				t.Fatal(err)
			}
			wantLogAccounted(t, l, fs, fmt.Sprintf("%s, after append %d", shape.name, i))
			wantLogBody(t, l, key, body)
		}
		if st := l.Stats(); st.Evictions == 0 || st.Entries == 0 {
			t.Errorf("%s: %+v after writing several times the budget", shape.name, st)
		}
		entries := l.Stats().Entries
		lowered := openSegLog(t, fs, budget/3)
		wantLogAccounted(t, lowered, fs, shape.name+", reopened with a third of the budget")
		if n := lowered.Stats().Entries; n == 0 || n >= entries {
			t.Errorf("%s: the lowered budget kept %d of %d entries", shape.name, n, entries)
		}

		fs = NewMemFS()
		l = openSegLog(t, fs, int64(shape.body/2))
		if err := logPut(l, "k", logBody("k", 1, shape.body)); err == nil {
			t.Errorf("%s: a record larger than the budget was stored", shape.name)
		}
		if names, _ := fs.List(""); l.Stats() != (SegLogStats{}) || len(names) != 0 {
			t.Errorf("%s, a budget below one record: stats %+v, files %v; want nothing stored, nothing created", shape.name, l.Stats(), names)
		}
	}
	l := openSegLog(t, NewMemFS(), 1<<30)
	if err := l.Append(logKey("k"), 0, [FrameHeader]byte{}, make([]byte, MaxRecord+1)); err == nil {
		t.Error("a record larger than MaxRecord was stored")
	}
}

// TestSegLogCarryForwardIsNotAnEviction: the append that carries an aging
// entry forward can be the one that reclaims the segment its old record is
// in. The entry is not lost, so it is not counted lost.
func TestSegLogCarryForwardIsNotAnEviction(t *testing.T) {
	for _, shape := range logShapes {
		record := int64(FrameHeader + 3 + shape.body)
		fs := NewMemFS()
		l := openSegLog(t, fs, 8*record) // each record is its own segment
		for i := 0; i < 8; i++ {
			key := "k" + strconv.Itoa(i)
			logPut(l, key, logBody(key, 1, shape.body))
		}
		ref, _ := l.Lookup(logKey("k0"))
		if !l.Aging(ref) {
			t.Fatalf("%s: the oldest record of a full log is not aging", shape.name)
		}
		if ref, _ := l.Lookup(logKey("k2")); l.Aging(ref) {
			t.Fatalf("%s: the third of eight records is aging", shape.name)
		}
		if err := logPut(l, "k0", logBody("k0", 1, shape.body)); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Evictions != 0 || st.Entries != 8 || st.Segments != 8 {
			t.Errorf("%s: after carrying k0 forward: %+v; want 8 entries in 8 segments and no eviction", shape.name, st)
		}
		for i := 0; i < 8; i++ {
			key := "k" + strconv.Itoa(i)
			wantLogBody(t, l, key, logBody(key, 1, shape.body))
		}
		logPut(l, "k8", logBody("k8", 1, shape.body))
		wantLogMiss(t, l, "k1")
		if st := l.Stats(); st.Evictions != 1 {
			t.Errorf("%s: after a ninth key: %+v; want the one eviction", shape.name, st)
		}
	}
}

// TestSegLogRemovesForeignFiles: the log owns its directory, so whatever is
// not a segment — an earlier release's manifests, slot files or temporaries,
// names that only look like segments — is removed at the open, and the
// segments work on through appends, reclaim and a reopen. Nothing is created
// before the first append, on any FS, and the log never calls Sync, Create or
// Rename.
func TestSegLogRemovesForeignFiles(t *testing.T) {
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	foreign := []string{"man-00ff.man", "seg-0000000001.log.tmp", "seg-12.log", "slot-000000.seg", "xseg-0000000000.log"}
	for name, fs := range map[string]FS{"MemFS": NewMemFS(), "DirFS": dir, "Sub": Sub(NewMemFS(), "lob")} {
		fs := &countingFS{FS: fs}
		l := openSegLog(t, fs, 2<<10)
		wantLogMiss(t, l, "a")
		logKill(l, "a")
		if err := l.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if names, _ := fs.List(""); len(names) != 0 {
			t.Errorf("%s: files %v before the first append, want none", name, names)
		}
		for _, f := range foreign {
			mustWrite(t, fs.FS, f, []byte("not the log's"))
		}
		l = openSegLog(t, fs, 2<<10)
		if names, _ := fs.List(""); len(names) != 0 {
			t.Errorf("%s: files %v after the open, want %v removed", name, names, foreign)
		}
		for i := 0; i < 60; i++ {
			logPut(l, "k"+strconv.Itoa(i), logBody("k", i, 100))
		}
		l = openSegLog(t, fs, 1<<10)
		names, _ := fs.List("")
		var others []string
		for _, n := range names {
			if !isSegment(n) {
				others = append(others, n)
			}
		}
		if len(others) != 0 || len(names) == 0 || l.Stats().Evictions == 0 {
			t.Errorf("%s: files %v, of which %v are not segments; want segments only (stats %+v)", name, names, others, l.Stats())
		}
		for i := 0; i < 60; i++ {
			if _, ok := l.Lookup(logKey("k" + strconv.Itoa(i))); ok {
				wantLogBody(t, l, "k"+strconv.Itoa(i), logBody("k", i, 100))
			}
		}
		if fs.forbidden != 0 {
			t.Errorf("%s: the log called Sync, Create or Rename %d times", name, fs.forbidden)
		}
	}
}

// countingFS counts the calls a soft-state log has no business making.
type countingFS struct {
	FS
	forbidden int
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFS) Create(name string) (File, error) { f.forbidden++; return f.FS.Create(name) }
func (f *countingFS) Rename(a, b string) error         { f.forbidden++; return f.FS.Rename(a, b) }
func (f *countingFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	return countingFile{file, f}, err
}
func (f countingFile) Sync() error { f.fs.forbidden++; return f.File.Sync() }

// TestSegLogClose: Close ends the appending, not the reading.
func TestSegLogClose(t *testing.T) {
	fs := NewMemFS()
	l := openSegLog(t, fs, 1<<20)
	logPut(l, "a", []byte("a"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := logPut(l, "b", []byte("b")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Close: %v, want ErrClosed", err)
	}
	logKill(l, "never stored")
	wantLogBody(t, l, "a", []byte("a"))
	wantLogMiss(t, l, "b")
	wantLogAccounted(t, l, fs, "after Close")
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSegLogReadFailsRatherThanGrows: Read takes the caller's buffer as it
// is. One the record fits is filled and the payload aliases it; a shorter one
// is io.ErrShortBuffer, whichever way the handle reads; and the forward arm
// returns what the positional arm does, record for record.
func TestSegLogReadFailsRatherThanGrows(t *testing.T) {
	fs := NewMemFS()
	l := openSegLog(t, fs, 64<<10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ { // several segments, some records superseded
		key := "k" + strconv.Itoa(rng.Intn(120))
		logPut(l, key, logBody(key, i, 1+rng.Intn(1000)))
	}
	seq := openSegLog(t, seqFS{fs}, 64<<10)
	want := l.Stats()
	want.Evictions = 0
	if seq.Stats() != want || want.Segments < 3 {
		t.Fatalf("reopen: %+v, the writer holds %+v", seq.Stats(), want)
	}
	for i := 0; i < 120; i++ {
		key := "k" + strconv.Itoa(i)
		ref, ok := l.Lookup(logKey(key))
		seqRef, seqOK := seq.Lookup(logKey(key))
		if ok != seqOK || ref.Len() != seqRef.Len() || ref.Word != seqRef.Word || ref.Head != seqRef.Head {
			t.Fatalf("%s: replay indexed %+v (%v), the writer %+v (%v)", key, seqRef, seqOK, ref, ok)
		}
		if !ok {
			continue
		}
		buf := make([]byte, ref.Len()+9)
		want, err := l.Read(ref, buf)
		if err != nil || &want[0] != &buf[FrameHeader] || len(want) != ref.Len()-FrameHeader {
			t.Fatalf("%s: positional read: %d bytes, %v; want the payload in the caller's buffer", key, len(want), err)
		}
		got, err := seq.Read(seqRef, make([]byte, ref.Len()))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: forward read %d bytes, %v; positional read %d", key, len(got), err, len(want))
		}
		for _, log := range []*SegLog{l, seq} {
			if _, err := log.Read(ref, buf[:ref.Len()-1]); err != io.ErrShortBuffer {
				t.Errorf("%s: a buffer one byte short: %v, want io.ErrShortBuffer", key, err)
			}
		}
	}
}

// TestSegLogConcurrent drives a log the way its owners do: appends, kills
// and index reads under one mutex, record reads outside it, eight goroutines
// over 64 keys, each key written by one of them and read by all. A read
// returns a miss or exactly a body that was stored under that key — for the
// key's own writer, the last one. The budget is small enough that segments
// are reclaimed throughout.
func TestSegLogConcurrent(t *testing.T) {
	const goroutines, keys, steps = 8, 64, 1500
	for fsName, newFS := range map[string]func() FS{
		"MemFS": func() FS { return NewMemFS() },
		"DirFS": func() FS {
			fs, err := NewDirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	} {
		t.Run(fsName, func(t *testing.T) {
			fs := newFS()
			l := openSegLog(t, fs, 16<<10)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 1))
					last := make(map[int]int) // own key → version stored, 0 when killed
					for i := 1; i <= steps; i++ {
						k := rng.Intn(keys)
						key := "key-" + strconv.Itoa(k)
						own := k%goroutines == g
						switch op := rng.Intn(10); {
						case own && op < 4:
							mu.Lock()
							err := logPut(l, key, logBody(key, i%250+1, 20+i*131%900))
							mu.Unlock()
							if err != nil {
								t.Error(err)
								return
							}
							last[k] = i%250 + 1
						case own && op == 4:
							mu.Lock()
							logKill(l, key)
							mu.Unlock()
							last[k] = 0
						default:
							mu.Lock()
							ref, ok := l.Lookup(logKey(key))
							mu.Unlock()
							if !ok {
								continue
							}
							p, err := l.Read(ref, make([]byte, ref.Len()))
							if err != nil { // its segment was reclaimed under the read
								mu.Lock()
								l.Forget(logKey(key), ref)
								mu.Unlock()
								continue
							}
							got, _, _, _ := logSplit(p)
							body := p[1+len(got):]
							if got != key || len(body) == 0 || !bytes.Equal(body, logBody(key, int(body[len(body)-1]), len(body))) {
								t.Errorf("%s: served %.40q, which was never stored under it", key, p)
							} else if own && int(body[len(body)-1]) != last[k] {
								t.Errorf("%s: its writer stored version %d last and read %d", key, last[k], body[len(body)-1])
							}
						}
					}
				}(g)
			}
			wg.Wait()
			wantLogAccounted(t, l, fs, "after the run")
			if l.Stats().Evictions == 0 {
				t.Errorf("no segment was reclaimed: %+v", l.Stats())
			}
		})
	}
}

// handleFS counts the read handles its FS hands out: how many were opened
// and how many are open now.
type handleFS struct {
	FS
	mu           sync.Mutex
	opened, open int
}

type countedHandle struct {
	io.ReadCloser
	fs     *handleFS
	closed bool
}

func (h *handleFS) Open(name string) (io.ReadCloser, error) {
	rc, err := h.FS.Open(name)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.opened++
	h.open++
	return &countedHandle{ReadCloser: rc, fs: h}, nil
}

func (h *handleFS) counts() (opened, open int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.opened, h.open
}

func (c *countedHandle) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadCloser.(io.ReaderAt).ReadAt(p, off)
}

func (c *countedHandle) Close() error {
	c.fs.mu.Lock()
	if !c.closed {
		c.closed = true
		c.fs.open--
	}
	c.fs.mu.Unlock()
	return c.ReadCloser.Close()
}

// TestSegLogHoldsOneHandlePerSegment: the log keeps one read handle per
// segment file, on both filesystems. Through appends that reclaim, the
// handles open are the segments live; reading every live record opens
// nothing; a reopen holds one per replayed segment; and after Close none
// are open, while a read still opens its file and closes it again.
func TestSegLogHoldsOneHandlePerSegment(t *testing.T) {
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]FS{"MemFS": NewMemFS(), "DirFS": dir} {
		t.Run(name, func(t *testing.T) {
			fs := &handleFS{FS: base}
			wantOpen := func(l *SegLog, when string) {
				t.Helper()
				if _, open := fs.counts(); open != l.Stats().Segments {
					t.Fatalf("%s: %d read handles open, %d segments", when, open, l.Stats().Segments)
				}
			}
			l := openSegLog(t, fs, 8<<10)
			for i := 0; i < 200; i++ {
				if err := logPut(l, "k"+strconv.Itoa(i%40), logBody("k", i, 200)); err != nil {
					t.Fatal(err)
				}
				wantOpen(l, "append "+strconv.Itoa(i))
			}
			if l.Stats().Evictions == 0 {
				t.Fatal("no segment was reclaimed")
			}
			opened, _ := fs.counts()
			read := 0
			for i := 160; i < 200; i++ {
				if _, ok := l.Lookup(logKey("k" + strconv.Itoa(i%40))); ok {
					wantLogBody(t, l, "k"+strconv.Itoa(i%40), logBody("k", i, 200))
					read++
				}
			}
			if now, _ := fs.counts(); read == 0 || now != opened {
				t.Errorf("%d reads opened %d handles, want none", read, now-opened)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, open := fs.counts(); open != 0 {
				t.Errorf("%d read handles open after Close, want 0", open)
			}
			wantLogBody(t, l, "k39", logBody("k", 199, 200)) // a read after Close opens its file
			if _, open := fs.counts(); open != 0 {
				t.Errorf("%d read handles open after a read past Close, want 0", open)
			}

			l = openSegLog(t, fs, 8<<10)
			wantOpen(l, "reopen")
			wantLogBody(t, l, "k39", logBody("k", 199, 200))
			l.Close()
		})
	}
}

// TestSegLogReadRacesReclaim: readers take a ref under the owner's lock and
// read it outside, while the owner appends and reclaims the segments those
// refs point into and closes their handles. Each read returns the record the
// ref named, byte for byte, or an error: never another record's bytes.
func TestSegLogReadRacesReclaim(t *testing.T) {
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]FS{"MemFS": NewMemFS(), "DirFS": dir} {
		t.Run(name, func(t *testing.T) {
			const keys, bodyLen = 8, 300
			var mu sync.Mutex // the owner's lock
			// Room for six records of eight keys, one to a segment: every
			// append reclaims the segment of a record a reader may hold.
			l := openSegLog(t, fs, 2<<10)
			version := make([]int, keys)
			put := func(k, v int) {
				key := "k" + strconv.Itoa(k)
				if err := logPut(l, key, logBody(key, v, bodyLen)); err != nil {
					t.Error(err)
				}
				version[k] = v
			}
			for k := 0; k < keys; k++ {
				put(k, 0)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var tries, hits, errs, other atomic.Int64
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 1<<10)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						tries.Add(1)
						k := (g + i) % keys
						key := "k" + strconv.Itoa(k)
						mu.Lock()
						ref, ok := l.Lookup(logKey(key))
						v := version[k]
						mu.Unlock()
						if !ok {
							continue
						}
						runtime.Gosched() // let appends reclaim the ref's segment
						p, err := l.Read(ref, buf)
						if err != nil {
							errs.Add(1)
							continue
						}
						if want := append(logKeyPart(key), logBody(key, v, bodyLen)...); !bytes.Equal(p, want) {
							if other.Add(1) == 1 {
								t.Errorf("a read of %s version %d returned %d other bytes", key, v, len(p))
							}
							continue
						}
						hits.Add(1)
					}
				}(g)
			}
			// The appends begin once the readers are reading, and go on past
			// 1 000 until the readers have tried 1 000 reads, however the
			// scheduler runs them.
			for tries.Load() < 4 {
				runtime.Gosched()
			}
			for i := 1; i <= 1000 || tries.Load() < 1000; i++ {
				mu.Lock()
				put(i%keys, i)
				mu.Unlock()
			}
			close(stop)
			wg.Wait()
			if l.Stats().Evictions == 0 {
				t.Fatal("no segment was reclaimed")
			}
			t.Logf("%d reads returned their record, %d an error, %d another's bytes", hits.Load(), errs.Load(), other.Load())
			if hits.Load() == 0 {
				t.Error("no read returned a record")
			}
		})
	}
}
