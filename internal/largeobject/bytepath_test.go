package largeobject

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/store"
	"nakika/internal/wire"
)

// Tests of the large-object byte path: the slot format is unchanged, a slab
// view's buffer is never recycled under its reader, every way a slot can be
// wrong is a miss that frees the slot and returns the buffer, and a warm
// range read allocates next to nothing.

// raceEnabled is set by race_test.go.
var raceEnabled bool

// appendFrame is the slot writer as it stood before writeSlot stopped
// copying the segment into a frame, kept verbatim as the format's oracle.
func appendFrame(buf []byte, id SegID, data []byte) []byte {
	payload := make([]byte, 0, SegIDLen+10+len(data))
	payload = wire.AppendRaw(payload, id[:])
	payload = wire.AppendUvarint(payload, uint64(len(data)))
	payload = append(payload, data...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, slabCRC))
	return append(buf, payload...)
}

func writeFile(t *testing.T, fs store.FS, name string, data []byte) {
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

// parentSlotHex is slot-000000.seg as the parent commit's writer left it for
// goldenData in a fresh slab.
const parentSlotHex = "9d571f86885e94ca5c43e3e5bc4667e22632b6e7fce50629619210dc416676c82bb75e3d126e61206b696b6120736c6f74206672616d65"

var goldenData = []byte("na kika slot frame")

// TestSlotFrameGolden: writeSlot's bytes on disk are the old writer's, for
// an empty segment, a short one, one whose length needs a two-byte varint
// and a full slot; and the literal captured at the parent pins both.
func TestSlotFrameGolden(t *testing.T) {
	const segSize = 512
	for _, data := range [][]byte{goldenData, {}, testBody(300), testBody(segSize)} {
		fs := store.NewMemFS()
		slab, err := NewSlab(fs, segSize, segSize)
		if err != nil {
			t.Fatal(err)
		}
		id := HashSegment(data)
		if err := slab.Put(id, data); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadAll(fs, slotName(0))
		if err != nil {
			t.Fatal(err)
		}
		if want := appendFrame(nil, id, data); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte segment: slot file differs from the old writer's\n got %x\nwant %x", len(data), got, want)
		}
		if bytes.Equal(data, goldenData) && hex.EncodeToString(got) != parentSlotHex {
			t.Fatalf("slot file differs from the parent's bytes: %x", got)
		}
	}
}

// TestParentSlabDirectoryIsServed: slot files written by the old writer (the
// captured literal and the oracle) are rescanned and served, not discarded.
func TestParentSlabDirectoryIsServed(t *testing.T) {
	fs := store.NewMemFS()
	parent, err := hex.DecodeString(parentSlotHex)
	if err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{goldenData, testBody(64), testBody(17)}
	writeFile(t, fs, slotName(0), parent)
	for i, seg := range segs[1:] {
		writeFile(t, fs, slotName(i+1), appendFrame(nil, HashSegment(seg), seg))
	}
	slab, err := NewSlab(fs, 64, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	if st := slab.Stats(); st.Used != len(segs) {
		t.Fatalf("rescan kept %d of %d parent slots", st.Used, len(segs))
	}
	for i, seg := range segs {
		if got, ok := slab.Get(HashSegment(seg)); !ok || !bytes.Equal(got, seg) {
			t.Fatalf("parent slot %d not served", i)
		}
	}
}

// FuzzSlabFrame: arbitrary bytes into parseFrame never panic, and anything
// it accepts re-encodes to the same bytes. The one exception is a length
// varint with padding, which binary.Uvarint reads and no writer produces:
// that re-encodes shorter, to a frame that parses to the same segment.
func FuzzSlabFrame(f *testing.F) {
	f.Add(appendFrame(nil, HashSegment(goldenData), goldenData))
	f.Add(appendFrame(nil, SegID{}, nil))
	f.Add(appendFrame(nil, SegID{1}, testBody(200)))
	f.Add(make([]byte, 4+SegIDLen))
	f.Add(append(make([]byte, 4+SegIDLen), 0x80, 0x00))
	f.Add([]byte{})
	check := func(t *testing.T, raw []byte) {
		id, data, err := parseFrame(raw)
		if err != nil {
			return
		}
		re := appendFrame(nil, id, data)
		if len(re) > len(raw) || (len(re) == len(raw) && !bytes.Equal(re, raw)) {
			t.Fatalf("accepted frame does not re-encode to itself\n raw %x\n re  %x", raw, re)
		}
		id2, data2, err := parseFrame(re)
		if err != nil || id2 != id || !bytes.Equal(data2, data) {
			t.Fatalf("re-encoded frame parses differently: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		check(t, raw)
		// The checksum turns almost every mutation away at the door; patch
		// it so the fuzzer reaches the parser behind it as well.
		if len(raw) >= 4 {
			fixed := append([]byte(nil), raw...)
			binary.BigEndian.PutUint32(fixed, crc32.Checksum(fixed[4:], slabCRC))
			check(t, fixed)
		}
	})
}

// TestSlabHonoursLoweredCapacity: a data directory written with 8 slots and
// reopened with room for 4 keeps 4 — the surplus files are removed at the
// rescan and never re-filled — and every surviving segment still reads.
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
	if names, _ := fs.List("slot-"); len(names) != 8 {
		t.Fatalf("wrote %d slot files, want 8", len(names))
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
		names, _ := fs.List("slot-")
		if len(names) > 4 {
			t.Fatalf("%s: slot files %v, want at most 4", when, names)
		}
		for _, name := range names {
			if name >= slotName(4) {
				t.Fatalf("%s: slot file %s is beyond the capacity", when, name)
			}
		}
	}
	check("after reopen")
	survivors := 0
	for _, seg := range segs {
		id := HashSegment(seg)
		if !small.Contains(id) {
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
	// Bringing the lost segments back evicts; it does not grow the table.
	for _, seg := range segs {
		if err := small.Put(HashSegment(seg), seg); err != nil {
			t.Fatal(err)
		}
	}
	check("after refill")
}

// TestSlabViewCorruption: each way a slot file can be wrong under a live
// mapping is a miss that unmaps the segment, frees the slot and hands the
// read buffer back, and the next Put reuses the slot.
func TestSlabViewCorruption(t *testing.T) {
	const segSize = 64
	seg := testBody(segSize)
	id := HashSegment(seg)
	frame := appendFrame(nil, id, seg)
	other := bytes.Repeat([]byte("o"), segSize)
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-9] ^= 0x10
	// A well-formed, checksummed frame that is one byte longer than any
	// frame Put writes: it must fail on its length, without being grown into.
	long := appendFrame(nil, id, testBody(frameHeaderMax+segSize+1-(4+SegIDLen+1)))
	if len(long) != frameHeaderMax+segSize+1 {
		t.Fatalf("over-long frame is %d bytes, want %d", len(long), frameHeaderMax+segSize+1)
	}
	for name, file := range map[string][]byte{
		"flipped bit":    flipped,
		"truncated":      frame[:len(frame)-5],
		"empty":          {},
		"one byte long":  long,
		"wrong id":       appendFrame(nil, HashSegment(other), other),
		"trailing bytes": append(append([]byte(nil), frame...), 0),
	} {
		t.Run(name, func(t *testing.T) {
			fs := store.NewMemFS()
			slab, err := NewSlab(fs, segSize, segSize) // one slot
			if err != nil {
				t.Fatal(err)
			}
			returned := 0
			slab.onRelease = func([]byte) { returned++ }
			if err := slab.Put(id, seg); err != nil {
				t.Fatal(err)
			}
			writeFile(t, fs, slotName(0), file)

			if data, release, ok := slab.view(id); ok {
				release()
				t.Fatalf("view served %d bytes from a bad slot", len(data))
			}
			if returned != 1 {
				t.Fatalf("read buffer returned %d times, want 1", returned)
			}
			st := slab.Stats()
			if st.Used != 0 || st.Misses != 1 || st.Hits != 0 || slab.Contains(id) {
				t.Fatalf("bad slot still mapped: %+v", st)
			}
			if err := slab.Put(id, seg); err != nil {
				t.Fatal(err)
			}
			if st := slab.Stats(); st.Used != 1 || st.Evictions != 0 {
				t.Fatalf("freed slot not reused: %+v", st)
			}
			if names, _ := fs.List("slot-"); len(names) != 1 || names[0] != slotName(0) {
				t.Fatalf("slot files = %v", names)
			}
			if got, ok := slab.Get(id); !ok || !bytes.Equal(got, seg) {
				t.Fatal("segment not served after the slot was rewritten")
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
