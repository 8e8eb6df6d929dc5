package largeobject

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/store"
	"nakika/internal/wire"
)

// Tests of the large-object byte path: the record format is pinned, a slab
// view's buffer is never recycled under its reader, every way a record can be
// wrong is a miss that drops the entry and returns the buffer, and a warm
// range read allocates next to nothing.

// raceEnabled is set by race_test.go.
var raceEnabled bool

// holds reports whether the slab's log indexes segment id.
func holds(s *Slab, id SegID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.log.Lookup(string(id[:]))
	return ok
}

func writeFile(t testing.TB, fs store.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// segRecord is the format's oracle: one log record for a segment is the WAL's
// frame around the segment's id followed by its bytes.
func segRecord(id SegID, data []byte) []byte {
	return store.AppendFrame(nil, append(id[:], data...))
}

// diskUsage is what the slab's log files really occupy.
func diskUsage(t testing.TB, fs store.FS) (files []string, bytes int64) {
	t.Helper()
	files, err := fs.List("seg-")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		data, err := store.ReadAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		bytes += int64(len(data))
	}
	return files, bytes
}

var goldenData = []byte("na kika slot frame")

// TestSlabSegmentGolden pins the record format and the carry-forward. In a
// slab of two 18-byte slots (so every record is its own file) a put, a second
// put and a put of the first again, which by then is aging, leave exactly
// these two files: the first record was appended afresh and its old file
// reclaimed, without an eviction. A reopen reads them back to that index. And
// for an empty segment, a short one and one long enough to be written beside
// its header instead of gathered with it, the file is the oracle's bytes.
func TestSlabSegmentGolden(t *testing.T) {
	golden := map[string]string{
		"seg-0000000001.log": "00000032" + "48ca1089" + "9ccd65f35a29f7b15634022be5ef2ebf254681448548a1634916ea4438b23917" + "7365636f6e64207365676d656e7420313862",
		"seg-0000000002.log": "00000032" + "c252bd17" + "885e94ca5c43e3e5bc4667e22632b6e7fce50629619210dc416676c82bb75e3d" + "6e61206b696b6120736c6f74206672616d65",
	}
	second := []byte("second segment 18b")
	fs := store.NewMemFS()
	slab, err := NewSlab(fs, int64(len(goldenData)), 2*int64(len(goldenData)))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{goldenData, second, goldenData} {
		if err := slab.Put(HashSegment(data), data); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, slab *Slab) {
		t.Helper()
		files, onDisk := diskUsage(t, fs)
		if len(files) != len(golden) {
			t.Fatalf("%s: files %v, want %d", when, files, len(golden))
		}
		for _, name := range files {
			got, _ := store.ReadAll(fs, name)
			if hex.EncodeToString(got) != golden[name] {
				t.Errorf("%s: %s = %x\nwant %s", when, name, got, golden[name])
			}
		}
		st := slab.Stats()
		if st.Used != 2 || st.Segments != 2 || st.Bytes != onDisk || st.LiveBytes != onDisk || st.Evictions != 0 {
			t.Errorf("%s: stats %+v, %d bytes on disk", when, st, onDisk)
		}
	}
	check("after the puts", slab)
	if st := slab.Stats(); st.Puts != 3 {
		t.Errorf("%d records appended, want 3 (the carry-forward is one)", st.Puts)
	}
	if got := segRecord(HashSegment(goldenData), goldenData); hex.EncodeToString(got) != golden["seg-0000000002.log"] {
		t.Errorf("the oracle writes %x", got)
	}
	reopened, err := NewSlab(fs, int64(len(goldenData)), 2*int64(len(goldenData)))
	if err != nil {
		t.Fatal(err)
	}
	check("after the reopen", reopened)
	for _, data := range [][]byte{goldenData, second} {
		if got, ok := reopened.Get(HashSegment(data)); !ok || !bytes.Equal(got, data) {
			t.Errorf("after the reopen: %q reads back as %q, hit %v", data, got, ok)
		}
	}

	const segSize = 128 << 10
	for _, data := range [][]byte{{}, testBody(300), testBody(segSize)} {
		fs := store.NewMemFS()
		slab, err := NewSlab(fs, segSize, segSize)
		if err != nil {
			t.Fatal(err)
		}
		id := HashSegment(data)
		if err := slab.Put(id, data); err != nil {
			t.Fatal(err)
		}
		if got, _ := store.ReadAll(fs, "seg-0000000000.log"); !bytes.Equal(got, segRecord(id, data)) {
			t.Fatalf("%d-byte segment: the file differs from the oracle's record", len(data))
		}
		if err := slab.Put(id, append(data, 0)); len(data) == segSize && err == nil {
			t.Fatal("a segment one byte over the segment size was stored")
		}
	}
}

// parentSlotHex is slot-000000.seg as the release that kept one file per
// segment left it for goldenData in a fresh slab.
const parentSlotHex = "9d571f86885e94ca5c43e3e5bc4667e22632b6e7fce50629619210dc416676c82bb75e3d126e61206b696b6120736c6f74206672616d65"

// parentManifestName is the file that release wrote a complete manifest to.
const parentManifestName = "man-5d4c6e0ab1f9a4e03c7f5a21.man"

// TestParentSlotFilesAreDiscarded: a lob/ directory of that release holds
// slot files and manifest files. Both are removed at the first open, not
// read; the object comes back as the node adopts its manifest from a peer's
// copy (or refetches it once), each segment by one ranged refetch the first
// time it is wanted; and the tier works from there.
func TestParentSlotFilesAreDiscarded(t *testing.T) {
	fs := store.NewMemFS()
	parent, err := hex.DecodeString(parentSlotHex)
	if err != nil {
		t.Fatal(err)
	}
	id := HashSegment(goldenData)
	m := &Manifest{Key: "GET http://o/parent", Status: 200, TotalLen: int64(len(goldenData)), SegSize: 64, Segments: []SegID{id}}
	writeFile(t, fs, "slot-000000.seg", parent)
	writeFile(t, fs, "slot-000001.seg", []byte("torn"))
	writeFile(t, fs, parentManifestName, AppendManifest([]byte{wire.Magic}, m))
	writeFile(t, fs, parentManifestName+".tmp", AppendManifest([]byte{wire.Magic}, m)[:9])
	tier, err := OpenTier(fs, 64, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(""); len(names) != 0 {
		t.Fatalf("files after the open = %v, want none", names)
	}
	if got, ok := tier.Manifest(m.Key); ok {
		t.Fatalf("the parent's manifest file was read: %+v", got)
	}
	if err := tier.PutManifest(m); err != nil { // adopted from a peer's copy
		t.Fatal(err)
	}
	got, _ := tier.Manifest(m.Key)
	if data, ok := tier.GetSegment(id); ok || tier.Resident(got) != 0 {
		t.Fatalf("a slot file was served: %q", data)
	}
	var fetched int
	rc, err := tier.NewStream(got, func(m *Manifest, ord int) ([]byte, error) {
		fetched++
		return goldenData, tier.PutSegment(m.Segments[ord], goldenData)
	}).Range(0, m.TotalLen)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(body, goldenData) || fetched != 1 {
		t.Fatalf("first read: %q, %v, %d fetches; want the object after one refetch", body, err, fetched)
	}
	if data, ok := tier.GetSegment(id); !ok || !bytes.Equal(data, goldenData) {
		t.Fatal("the refetched segment is not resident")
	}
}

// FuzzSlabSegment hands NewSlab arbitrary bytes as a log segment file, beside
// a well-formed one. The open never panics; whatever Get serves under an id
// was framed under that id in one of the two files, and fits a segment; an id
// that misses is not left indexed and nothing indexed is unreadable; the
// stats are what is on disk, within budget; and the next Put works. OpenTier
// over the same two files never panics either, and every manifest it
// restores is complete, re-encodes to what it decoded from, and is the one
// its log indexes.
func FuzzSlabSegment(f *testing.F) {
	const segSize, slots = 64, 8
	seedFS := store.NewMemFS()
	slab, err := NewSlab(seedFS, segSize, slots*segSize)
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{goldenData, testBody(segSize), {}} {
		if err := slab.Put(HashSegment(data), data); err != nil {
			f.Fatal(err)
		}
	}
	good, _ := store.ReadAll(seedFS, "seg-0000000000.log")
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(segRecord(HashSegment(goldenData), []byte("another body under that id")))
	f.Add(segRecord(SegID{1}, testBody(segSize+1)))
	f.Add(store.AppendFrame(nil, make([]byte, SegIDLen-1)))
	f.Add(store.AppendFrame(nil, nil))
	f.Add([]byte{})
	manifest := &Manifest{Key: "GET http://o/fuzz", Status: 200, Header: http.Header{"Etag": {`"f"`}},
		TotalLen: segSize + 5, SegSize: segSize, Segments: []SegID{HashSegment(goldenData), HashSegment([]byte("tail!"))}}
	record := store.AppendFrame(nil, appendManifestRecord(nil, manifest.Key, manifest))
	tombstone := store.AppendFrame(nil, appendManifestRecord(nil, manifest.Key, nil))
	f.Add(record)
	f.Add(tombstone)
	f.Add(append(append([]byte(nil), record...), tombstone...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tierFS := store.NewMemFS()
		writeFile(t, tierFS, "seg-0000000003.log", good)
		writeFile(t, tierFS, "seg-0000000004.log", data)
		tier, err := OpenTier(tierFS, segSize, slots*segSize)
		if err != nil {
			t.Fatal(err)
		}
		for key, m := range tier.manifests {
			re, err := decodeManifest(AppendManifest(nil, m))
			if err != nil || m.Key != key || !m.Complete() || !bytes.Equal(AppendManifest(nil, re), AppendManifest(nil, m)) {
				t.Errorf("%q: restored %+v, which does not re-encode (%v)", key, m, err)
			}
			if _, ok := tier.slab.log.Lookup(manifestKey(key)); !ok {
				t.Errorf("%q: restored, but its record is not indexed", key)
			}
		}

		fs := store.NewMemFS()
		writeFile(t, fs, "seg-0000000003.log", good)
		writeFile(t, fs, "seg-0000000004.log", data)
		slab, err := NewSlab(fs, segSize, slots*segSize)
		if err != nil {
			t.Fatal(err)
		}
		framed := make(map[SegID][][]byte)
		for _, file := range [][]byte{good, data} {
			store.ReplayFrames(file, func(p []byte) error {
				if len(p) >= SegIDLen {
					framed[SegID(p)] = append(framed[SegID(p)], p[SegIDLen:])
				}
				return nil
			})
		}
		hits := 0
		for id, bodies := range framed {
			got, ok := slab.Get(id)
			if !ok {
				if holds(slab, id) {
					t.Errorf("%v: a miss, and still indexed", id)
				}
				continue
			}
			hits++
			if !slices.ContainsFunc(bodies, func(b []byte) bool { return bytes.Equal(b, got) }) || len(got) > segSize {
				t.Errorf("%v: served %d bytes that were never framed under it", id, len(got))
			}
		}
		_, onDisk := diskUsage(t, fs)
		if st := slab.Stats(); st.Used != hits || st.Bytes != onDisk || st.Bytes > slots*(store.FrameHeader+SegIDLen+segSize) || st.LiveBytes > st.Bytes || st.LiveBytes < 0 {
			t.Errorf("stats %+v, %d hits, %d bytes on disk", st, hits, onDisk)
		}
		after := []byte("after")
		if err := slab.Put(HashSegment(after), after); err != nil {
			t.Fatal(err)
		}
		if got, ok := slab.Get(HashSegment(after)); !ok || !bytes.Equal(got, after) {
			t.Errorf("a segment put after the open reads back as %q, hit %v", got, ok)
		}
	})
}

// TestSlabHonoursLoweredCapacity: a data directory written with room for 8
// segments and reopened with room for 4 keeps 4 — the oldest files are
// reclaimed at the open — and every surviving segment still reads.
func TestSlabHonoursLoweredCapacity(t *testing.T) {
	const segSize = 64
	fs := store.NewMemFS()
	slab, err := NewSlab(fs, segSize, 8*segSize)
	if err != nil {
		t.Fatal(err)
	}
	segs := make([][]byte, 8)
	for i := range segs {
		segs[i] = bytes.Repeat([]byte{byte('a' + i)}, segSize)
		if err := slab.Put(HashSegment(segs[i]), segs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := slab.Stats(); st.Used != 8 || st.Slots != 8 {
		t.Fatalf("wrote %d segments into %d slots, want 8 and 8", st.Used, st.Slots)
	}

	small, err := NewSlab(fs, segSize, 4*segSize)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		st := small.Stats()
		if st.Slots != 4 || st.Used > 4 {
			t.Fatalf("%s: %d slots, %d used; want 4 and at most 4", when, st.Slots, st.Used)
		}
		if _, onDisk := diskUsage(t, fs); st.Bytes != onDisk || onDisk > 4*(store.FrameHeader+SegIDLen+segSize) {
			t.Fatalf("%s: %d bytes on disk, stats %+v; want them equal and within 4 records", when, onDisk, st)
		}
	}
	check("after reopen")
	survivors := 0
	for _, seg := range segs {
		id := HashSegment(seg)
		if !holds(small, id) {
			continue
		}
		survivors++
		if got, ok := small.Get(id); !ok || !bytes.Equal(got, seg) {
			t.Fatal("surviving segment does not read back")
		}
	}
	if survivors != small.Stats().Used || survivors == 0 {
		t.Fatalf("%d survivors, %d slots used", survivors, small.Stats().Used)
	}
	// Bringing the lost segments back evicts; it does not grow the log.
	for _, seg := range segs {
		if err := small.Put(HashSegment(seg), seg); err != nil {
			t.Fatal(err)
		}
		check("during refill")
	}
}

// TestSlabViewCorruption: each way a record can be wrong under a live index
// entry is a miss that drops the entry and hands the read buffer back, the
// next Put stores the segment again without evicting anything, and a reopen
// over the bad file does not index the segment either.
func TestSlabViewCorruption(t *testing.T) {
	const segSize = 64
	seg := testBody(segSize)
	id := HashSegment(seg)
	record := segRecord(id, seg)
	other := bytes.Repeat([]byte("o"), segSize)
	flipped := append([]byte(nil), record...)
	flipped[len(flipped)-9] ^= 0x10
	// A well-formed, checksummed record that is one byte longer than any
	// record Put writes: it must fail on its length, without being grown into.
	long := segRecord(id, testBody(segSize+1))
	for name, file := range map[string][]byte{
		"flipped bit":   flipped,
		"truncated":     record[:len(record)-5],
		"empty":         {},
		"one byte long": long,
		"wrong id":      segRecord(HashSegment(other), other),
		"shifted":       append([]byte{0}, record...),
	} {
		t.Run(name, func(t *testing.T) {
			fs := store.NewMemFS()
			slab, err := NewSlab(fs, segSize, segSize) // room for one
			if err != nil {
				t.Fatal(err)
			}
			returned := 0
			slab.onRelease = func(buf []byte) {
				if len(buf) != len(record) {
					t.Errorf("read buffer is %d bytes, want one maximal record, %d", len(buf), len(record))
				}
				returned++
			}
			if err := slab.Put(id, seg); err != nil {
				t.Fatal(err)
			}
			writeFile(t, fs, "seg-0000000000.log", file)

			if data, release, ok := slab.view(id); ok {
				release()
				t.Fatalf("view served %d bytes from a bad record", len(data))
			}
			if returned != 1 {
				t.Fatalf("read buffer returned %d times, want 1", returned)
			}
			st := slab.Stats()
			if st.Used != 0 || st.Misses != 1 || st.Hits != 0 || holds(slab, id) {
				t.Fatalf("bad record still indexed: %+v", st)
			}
			bad := store.NewMemFS()
			writeFile(t, bad, "seg-0000000000.log", file)
			if re, err := NewSlab(bad, segSize, segSize); err != nil || holds(re, id) {
				t.Fatalf("a reopen over the bad file indexed the segment (%v)", err)
			}
			if err := slab.Put(id, seg); err != nil {
				t.Fatal(err)
			}
			if st := slab.Stats(); st.Used != 1 || st.Evictions != 0 {
				t.Fatalf("segment not stored again: %+v", st)
			}
			if got, ok := slab.Get(id); !ok || !bytes.Equal(got, seg) {
				t.Fatal("segment not served after it was stored again")
			}
		})
	}
}

// TestSlabViewDoubleReleasePanics: returning one buffer twice would let two
// readers share it; it is a bug, and it does not pass silently.
func TestSlabViewDoubleReleasePanics(t *testing.T) {
	slab, err := NewSlab(store.NewMemFS(), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seg := testBody(64)
	if err := slab.Put(HashSegment(seg), seg); err != nil {
		t.Fatal(err)
	}
	_, release, ok := slab.view(HashSegment(seg))
	if !ok {
		t.Fatal("view missed")
	}
	release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	release()
}

var errStopWriting = errors.New("writer stopped")

// limitWriter accepts limit bytes and then fails, cutting a WriteTo short
// in the middle of a segment.
type limitWriter struct {
	buf   bytes.Buffer
	limit int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.buf.Len(); len(p) > room {
		w.buf.Write(p[:room])
		return room, errStopWriting
	}
	return w.buf.Write(p)
}

// TestViewBuffersAreNeverRecycledUnderAReader: eight goroutines read seeded
// unaligned ranges of one object, half through Read and half through
// WriteTo, a third of the ranges abandoned part-way, while a hook poisons
// every buffer the moment it is released. Every byte delivered equals the
// object, so no reader ever looked at a buffer it had let go; a double
// release panics. Run under -race, which also sees a reader touching a
// buffer its next holder is filling.
func TestViewBuffersAreNeverRecycledUnderAReader(t *testing.T) {
	const segSize = 4096
	tier, err := OpenTier(store.NewMemFS(), segSize, 64*segSize)
	if err != nil {
		t.Fatal(err)
	}
	body := testBody(40*segSize + 123)
	m, err := tier.IngestBody("GET http://o/lifetime", 200, nil, time.Now(), body)
	if err != nil {
		t.Fatal(err)
	}
	var released atomic.Int64
	tier.slab.onRelease = func(buf []byte) {
		for i := range buf {
			buf[i] = 0xDB
		}
		released.Add(1)
	}
	stream := tier.NewStream(m, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < 60; i++ {
				from := rng.Intn(len(body) - 1)
				span := 1 + rng.Intn(min(len(body)-from, 6*segSize))
				deliver := span
				if i%3 == 0 {
					deliver = rng.Intn(span + 1) // abandoned part-way, anywhere
				}
				want := body[from : from+deliver]
				rc, err := stream.Range(int64(from), int64(from+span))
				if err != nil {
					t.Error(err)
					return
				}
				dst := &limitWriter{limit: len(want)}
				if g%2 == 0 {
					p := make([]byte, 1+rng.Intn(3000))
					for dst.buf.Len() < len(want) {
						n, err := rc.Read(p[:min(len(p), len(want)-dst.buf.Len())])
						dst.buf.Write(p[:n])
						if err != nil {
							t.Errorf("read [%d,+%d): %v", from, len(want), err)
							return
						}
					}
				} else if _, err := rc.(io.WriterTo).WriteTo(dst); err != nil && err != errStopWriting {
					t.Errorf("write [%d,+%d): %v", from, len(want), err)
					return
				}
				rc.Close()
				rc.Close() // idempotent: the view, if still held, goes back once
				if !bytes.Equal(dst.buf.Bytes(), want) {
					t.Errorf("goroutine %d range [%d,+%d): delivered bytes differ from the object", g, from, len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if released.Load() == 0 {
		t.Fatal("no buffer was ever released: the hook is not on the path")
	}
}

// TestWarmRangeAllocationBudget: a warm unaligned 1 MiB range over real
// files, copied the way the node copies it, allocates under 64 KiB (the
// parent allocated 7 MiB: a grown slice, a copy and a bounce buffer per
// 256 KiB segment).
func TestWarmRangeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const segSize = 256 << 10
	fs, err := store.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier, err := OpenTier(fs, segSize, 16*segSize)
	if err != nil {
		t.Fatal(err)
	}
	body := testBody(8 * segSize)
	m, err := tier.IngestBody("GET http://o/budget", 200, nil, time.Now(), body)
	if err != nil {
		t.Fatal(err)
	}
	stream := tier.NewStream(m, nil)
	read := func() {
		rc, err := stream.Range(100_003, 100_003+1<<20)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, rc)
		rc.Close()
		if err != nil || n != 1<<20 {
			t.Fatalf("read %d bytes: %v", n, err)
		}
	}
	read() // warm-up: the pool gets its buffer
	const reads = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%d bytes allocated per warm 1 MiB range", perRead)
	if perRead >= 64<<10 {
		t.Fatalf("warm 1 MiB range allocates %d bytes, budget is under %d", perRead, 64<<10)
	}
}
