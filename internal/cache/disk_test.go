package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// newDiskCache builds a tiny 1-shard memory cache over a disk tier so
// evictions (and therefore demotions) are easy to force.
func newDiskCache(t *testing.T, fs store.FS, maxEntries int, clock func() time.Time) (*Cache, *Disk) {
	t.Helper()
	d, err := OpenDisk(fs, 1<<20, clock)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{MaxEntries: maxEntries, DefaultTTL: time.Hour, Clock: clock, L2: d})
	if len(c.shards) != 1 {
		t.Fatalf("want 1 shard for exact LRU, got %d", len(c.shards))
	}
	return c, d
}

func page(body string) *httpmsg.Response {
	r := httpmsg.NewHTMLResponse(200, body)
	r.SetMaxAge(600)
	return r
}

func openDisk(t testing.TB, fs store.FS, maxBytes int64, clock func() time.Time) *Disk {
	t.Helper()
	d, err := OpenDisk(fs, maxBytes, clock)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func listFiles(t testing.TB, fs store.FS) []string {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func writeFile(t testing.TB, fs store.FS, name string, data []byte) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// wantBody asserts that key reads back from the tier with exactly body.
func wantBody(t *testing.T, d *Disk, key, body string) {
	t.Helper()
	resp, _, ok := d.Get(key)
	if !ok || string(resp.Body) != body {
		t.Errorf("Get(%q) = %v, hit %v; want body %q", key, resp, ok, body)
	}
}

func wantMiss(t *testing.T, d *Disk, key string) {
	t.Helper()
	if resp, _, ok := d.Get(key); ok {
		t.Errorf("Get(%q) served %q, want a miss", key, resp.Body)
	}
}

func TestDemoteOnEvictionAndPromoteOnHit(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c, d := newDiskCache(t, store.NewMemFS(), 2, clock)

	c.Put("a", page("body-a"))
	c.Put("b", page("body-b"))
	c.Put("c", page("body-c")) // evicts a → disk

	if d.Len() != 1 {
		t.Fatalf("disk entries = %d, want 1", d.Len())
	}
	resp := c.Get("a")
	if resp == nil || string(resp.Body) != "body-a" {
		t.Fatalf("disk promote failed: %v", resp)
	}
	if !resp.FromCache {
		t.Error("promoted response not marked FromCache")
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.Demotions < 1 {
		t.Errorf("stats = %+v", st)
	}
	// The promotion put "a" back in memory (evicting "b" to disk); a
	// second Get must be a pure memory hit.
	before := c.Stats().DiskHits
	if c.Get("a") == nil {
		t.Fatal("promoted entry not in memory")
	}
	if c.Stats().DiskHits != before {
		t.Error("second Get went to disk again")
	}
}

// TestCleanDemotionWritesNothing: an entry whose record is already on disk
// unchanged is not written again — not by eviction, not by FlushToDisk — and
// "unchanged" is judged by the record's bytes, not by the expiry alone: a new
// body filed at the same instant, so with the same expiry, is written.
func TestCleanDemotionWritesNothing(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fs := store.NewMemFS()
	c, d := newDiskCache(t, fs, 1, clock)
	check := func(step string, stores, clean int64) {
		t.Helper()
		if st := d.Stats(); st.Stores != stores || st.Clean != clean || fs.Writes() != stores {
			t.Fatalf("%s: %d written, %d clean, %d writes to the filesystem; want %d, %d, %d",
				step, st.Stores, st.Clean, fs.Writes(), stores, clean, stores)
		}
	}
	c.Put("a", page("body-a"))
	c.Put("b", page("body-b"))
	check("first demotion of a", 1, 0)
	c.Get("a")
	check("promoting a demotes b for the first time", 2, 0)
	c.Get("b")
	check("promoting b demotes a, which is on disk as it is", 2, 1)
	c.Put("a", page("other")) // same clock, so the same expiry as the record of a on disk
	check("a new body for a evicts b, still clean", 2, 2)
	c.Get("b")
	check("the new a differs from its record and is written", 3, 2)
	if got := c.Get("a"); got == nil || string(got.Body) != "other" {
		t.Fatalf("a reads back as %v, want the body filed last", got)
	}
	check("b is demoted once more, clean", 3, 3)
	c.FlushToDisk()
	check("the flush finds a on disk already", 3, 4)
	if st := d.Stats(); st.Entries != 2 || st.Segments != 1 || st.LiveBytes >= st.Bytes {
		t.Errorf("stats = %+v: want 2 entries in 1 segment, with the superseded record of a counted in Bytes only", st)
	}
}

func TestDiskRewarmAfterReopen(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fs := store.NewMemFS()
	c, _ := newDiskCache(t, fs, 2, clock)

	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, page("body-"+k))
	}
	// a and b were evicted to disk; touch them so c and d demote too.
	c.Get("a")
	c.Get("b")

	// "Restart": a brand-new cache over a rescanned disk tier.
	c2, d2 := newDiskCache(t, fs, 2, clock)
	if d2.Len() < 4 {
		t.Fatalf("rescan found %d entries, want 4", d2.Len())
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		resp := c2.Get(k)
		if resp == nil || string(resp.Body) != "body-"+k {
			t.Fatalf("rewarm miss for %s", k)
		}
	}
	if st := c2.Stats(); st.DiskHits != 4 {
		t.Errorf("disk hits = %d, want 4", st.DiskHits)
	}
}

func TestDiskExpiryAndCorruptionRejected(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fs := store.NewMemFS()
	c, d := newDiskCache(t, fs, 1, clock)

	c.Put("a", page("body-a"))
	c.Put("b", page("body-b")) // a → disk
	if d.Len() != 1 {
		t.Fatalf("disk entries = %d", d.Len())
	}
	// Past expiry the disk entry is a miss and leaves the index; its bytes
	// wait for their segment to be reclaimed.
	now = now.Add(time.Hour)
	if c.Get("a") != nil {
		t.Fatal("expired disk entry served")
	}
	if d.Len() != 0 {
		t.Fatal("expired disk entry not dropped")
	}
	// A reopen skips the expired record, and removes the segment that holds
	// nothing else.
	if d2 := openDisk(t, fs, 1<<20, clock); d2.Len() != 0 || len(listFiles(t, fs)) != 0 {
		t.Fatalf("reopen past the expiry: %d entries, files %v", d2.Len(), listFiles(t, fs))
	}

	// A corrupted record is rejected at scan time.
	now = now.Add(-time.Hour)
	c, _ = newDiskCache(t, fs, 1, clock)
	c.Put("b", page("body-b"))
	c.Put("c", page("body-c")) // b → disk
	names := listFiles(t, fs)
	if len(names) != 1 {
		t.Fatalf("files = %v", names)
	}
	data, _ := store.ReadAll(fs, names[0])
	data[len(data)-1] ^= 0xff
	writeFile(t, fs, names[0], data)
	d2 := openDisk(t, fs, 1<<20, clock)
	if d2.Len() != 0 {
		t.Fatal("corrupt entry survived the scan")
	}
	if names := listFiles(t, fs); len(names) != 0 {
		t.Error("corrupt file not deleted")
	}
}

// TestExpiryInstantIsStaleInBothTiers: an entry is fresh only while the
// clock is before its expiry. A nanosecond before, memory and disk both
// serve it; at the instant itself neither does, and neither accepts it.
func TestExpiryInstantIsStaleInBothTiers(t *testing.T) {
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { return now }
	expires := now.Add(time.Minute)
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	c := New(Config{Clock: clock})
	c.PutUntil("k", page("v"), expires)
	d.Put("k", page("v"), expires)

	now = expires.Add(-time.Nanosecond)
	if c.Get("k") == nil {
		t.Error("memory: not served a nanosecond before the expiry")
	}
	wantBody(t, d, "k", "v")
	d2 := openDisk(t, fs, 0, clock)
	wantBody(t, d2, "k", "v")

	now = expires
	if c.Get("k") != nil {
		t.Error("memory: served at the expiry instant")
	}
	wantMiss(t, d, "k")
	if d3 := openDisk(t, fs, 0, clock); d3.Len() != 0 {
		t.Error("rescan: indexed an entry at its expiry instant")
	}
	if c.PutUntil("k2", page("v"), now) {
		t.Error("memory: stored an entry that expires now")
	}
	d.Put("k2", page("v"), now)
	wantMiss(t, d, "k2")

	// With the tier attached the same instant governs demotion and flush.
	c2 := New(Config{MaxEntries: 1, Clock: clock, L2: d})
	now = expires.Add(-time.Minute)
	c2.PutUntil("x", page("x"), expires)
	now = expires
	c2.Put("y", page("y")) // evicts x at its expiry instant
	c2.FlushToDisk()
	if _, ok := d.log.Lookup(hashKey("x")); ok {
		t.Error("an entry evicted at its expiry instant was demoted")
	}
}

// TestStaleOnArrivalIsNotStored: a response whose own headers say it is
// stale already expires at the instant it was fetched — it does not get the
// default TTL — and Put reports it unstored.
func TestStaleOnArrivalIsNotStored(t *testing.T) {
	now := time.Unix(1_800_000_000, 0)
	c := New(Config{Clock: func() time.Time { return now }})
	for name, h := range map[string]http.Header{
		"max-age=0":               {"Cache-Control": {"max-age=0"}},
		"s-maxage=0 over max-age": {"Cache-Control": {"max-age=60, s-maxage=0"}},
		"Expires in the past":     {"Expires": {now.Add(-time.Hour).UTC().Format(http.TimeFormat)}},
		"Expires now":             {"Expires": {now.UTC().Format(http.TimeFormat)}},
		"Expires: 0":              {"Expires": {"0"}},
	} {
		if got := c.Expiry(httpmsg.FromHTTPHeader(h), now); !got.Equal(now) {
			t.Errorf("%s: Expiry = fetched + %v, want fetched", name, got.Sub(now))
		}
		r := httpmsg.NewHTMLResponse(200, "x")
		for k, vs := range h {
			r.Header.Set(k, vs[0])
		}
		if c.Put(name, r) || c.Len() != 0 {
			t.Errorf("%s: stored", name)
		}
	}
	if got := c.Expiry(httpmsg.Header{}, now); !got.Equal(now.Add(60 * time.Second)) {
		t.Errorf("no freshness information: Expiry = fetched + %v, want the default TTL", got.Sub(now))
	}
}

// segName is the name the log gives its id'th segment file.
func segName(id int) string { return fmt.Sprintf("seg-%010d.log", id) }

// frameRecord builds one segment record with a valid frame around an
// arbitrary body, so the tests below reach the body decode.
func frameRecord(key string, expires time.Time, body []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(key)))
	payload = append(payload, key...)
	payload = binary.BigEndian.AppendUint64(payload, uint64(expires.UnixNano()))
	return store.AppendFrame(nil, append(payload, body...))
}

// TestDiskDropsEntryWhoseBodyIsNotInTheCodec: a fresh, checksum-clean record
// whose body does not start with the magic byte — a gob stream from the
// release that wrote gob, or anything else — is dropped at the boot scan and
// at Get, never served.
func TestDiskDropsEntryWhoseBodyIsNotInTheCodec(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	// A cacheable 200 as the gob encoder wrote it: the build with the gob arm
	// served this entry.
	gobBody, _ := hex.DecodeString("717f03010108526573706f6e736501ff800001080106537461747573010400010648656164657201ff84000104426f6479010a00010947656e657261746564010200010946726f6d43616368650102000103566961010c0001074665746368656401ff8600010653747265616d011000000017ff830401010648656164657201ff8400010c01ff8200000cff81020102ff8200010c000010ff850501010454696d6501ff8600000065ff8001fe019001020c436f6e74656e742d547970650109746578742f68746d6c0d43616368652d436f6e74726f6c010a6d61782d6167653d3630010f3c68746d6c3e68693c2f68746d6c3e0306656467652d31010f010000000edce5e80000000005000000")
	for name, body := range map[string][]byte{"gob": gobBody, "text": []byte("<html>raw</html>"), "empty": nil} {
		const key = "http://example.org/a"
		bad := frameRecord(key, now.Add(time.Minute), body)

		fs := store.NewMemFS()
		writeFile(t, fs, segName(1), bad)
		d := openDisk(t, fs, 0, clock)
		if names := listFiles(t, fs); d.Len() != 0 || len(names) != 0 {
			t.Errorf("%s body: boot scan kept the entry (%d indexed, files %v)", name, d.Len(), names)
		}

	}

	// The same under a live index entry, which the tier itself would never
	// make: the record of a good entry is replaced where it lies by one of the
	// same length, checksum-clean, whose body has lost its magic byte.
	const key = "http://example.org/a"
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	d.Put(key, page("<html>hi</html>"), now.Add(time.Minute))
	wantBody(t, d, key, "<html>hi</html>")
	good, _ := store.ReadAll(fs, segName(0))
	body := append([]byte(nil), good[len(frameRecord(key, now, nil)):]...)
	body[0] ^= 0xff
	bad := frameRecord(key, now.Add(time.Minute), body)
	if len(bad) != len(good) || bytes.Equal(bad, good) {
		t.Fatalf("the substitute record is %d bytes, the original %d", len(bad), len(good))
	}
	writeFile(t, fs, segName(0), bad)
	if resp, _, ok := d.Get(key); ok {
		t.Errorf("Get served %+v from a record whose body is not in the codec", resp)
	}
	if d.Len() != 0 {
		t.Errorf("Get kept the entry (%d indexed)", d.Len())
	}
}

// TestDiskSegmentGolden pins the segment format: a put, a put under a second
// key, a put that supersedes the first and a tombstone for the second are
// these bytes, in one file of this name, and a reopen reads them back to the
// index they describe. Each record is the WAL's frame — payload length and
// CRC-32C, big-endian — around uvarint(len(key)) key expiry(unix ns,
// big-endian) and, unless it is a tombstone, the response as httpmsg encodes
// it (magic byte first).
func TestDiskSegmentGolden(t *testing.T) {
	const (
		keyA = "http://example.org/a"
		keyB = "http://example.org/b"
		// The previous release's segment, whose responses went on with a
		// fetch time, is TestDiskEntryGolden's parentSegment.
		golden = "" +
			"0000006c" + "a9a7e4d8" + "14687474703a2f2f6578616d706c652e6f72672f61" + "17979d0c2e715800" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31" +
			"0000006b" + "8940f595" + "14687474703a2f2f6578616d706c652e6f72672f62" + "17979d0c2e715800" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0e3c68746d6c3e623c2f68746d6c3e000006656467652d31" +
			"0000006c" + "1fbfcea0" + "14687474703a2f2f6578616d706c652e6f72672f61" + "17979d1a26b8b000" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e686f3c2f68746d6c3e000006656467652d31" +
			"0000001d" + "959f5a55" + "14687474703a2f2f6578616d706c652e6f72672f62" + "0000000000000000"
	)
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	resp := func(body string) *httpmsg.Response {
		return &httpmsg.Response{
			Status: 200,
			Header: httpmsg.FromHTTPHeader(http.Header{"Content-Type": {"text/html"}, "Cache-Control": {"max-age=60"}}),
			Body:   []byte(body),
			Via:    "edge-1",
		}
	}
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	d.Put(keyA, resp("<html>hi</html>"), now.Add(time.Minute))
	d.Put(keyB, resp("<html>b</html>"), now.Add(time.Minute))
	d.Put(keyA, resp("<html>ho</html>"), now.Add(2*time.Minute))
	d.Invalidate(keyB)
	if names := listFiles(t, fs); !reflect.DeepEqual(names, []string{"seg-0000000000.log"}) {
		t.Fatalf("files = %v, want the one segment", names)
	}
	data, err := store.ReadAll(fs, "seg-0000000000.log")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Errorf("segment = %s\nwant      %s", got, golden)
	}

	old := store.NewMemFS()
	raw, _ := hex.DecodeString(golden)
	writeFile(t, old, "seg-0000000000.log", raw)
	d2 := openDisk(t, old, 0, clock)
	got, expires, ok := d2.Get(keyA)
	if !ok || string(got.Body) != "<html>ho</html>" || got.Via != "edge-1" || !expires.Equal(now.Add(2*time.Minute)) {
		t.Errorf("captured segment reads back as %+v, expires %v, ok %v", got, expires, ok)
	}
	wantMiss(t, d2, keyB)
	if st := d2.Stats(); st.Entries != 1 || st.Segments != 1 || st.Bytes != int64(len(raw)) || st.LiveBytes >= st.Bytes {
		t.Errorf("stats after the reopen = %+v", st)
	}
	// An old segment is never appended to: the next record starts the next.
	d2.Put(keyB, resp("<html>b</html>"), now.Add(time.Minute))
	if names := listFiles(t, old); !reflect.DeepEqual(names, []string{"seg-0000000000.log", "seg-0000000001.log"}) {
		t.Errorf("files after a Put on the reopened tier = %v", names)
	}
	if again, _ := store.ReadAll(old, "seg-0000000000.log"); !bytes.Equal(again, raw) {
		t.Error("the reopened tier modified the old segment")
	}
}

// TestDiskEntryGolden holds what two earlier releases left in a cache
// directory, and neither is read. The release that kept one file per entry
// left an entry file, which is deleted at the first open, without error. The
// release before this one left TestDiskSegmentGolden's segment with each
// response ending in a fetch time this build's codec does not have: every
// record is refused by the codec, not misread, so at the open each is a
// miss and is dropped, and its segment with it. Either way the tier works
// from there.
func TestDiskEntryGolden(t *testing.T) {
	const (
		key           = "http://example.org/a"
		goldenName    = "6a2d6a47a2828fe021aefacd33629435.ent"
		golden        = "7dee2fb814687474703a2f2f6578616d706c652e6f72672f6117979d0c2e71580000c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f"
		parentSegment = "" +
			"00000076" + "7dee2fb8" + "14687474703a2f2f6578616d706c652e6f72672f61" + "17979d0c2e715800" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f" +
			"00000075" + "8b3684e7" + "14687474703a2f2f6578616d706c652e6f72672f62" + "17979d0c2e715800" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0e3c68746d6c3e623c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f" +
			"00000076" + "cd399479" + "14687474703a2f2f6578616d706c652e6f72672f61" + "17979d1a26b8b000" +
			"00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e686f3c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f" +
			"0000001d" + "959f5a55" + "14687474703a2f2f6578616d706c652e6f72672f62" + "0000000000000000"
	)
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	for name, files := range map[string]map[string]string{
		"entry file":       {goldenName: golden, "seg-0000000001.log.tmp": ""},
		"previous segment": {"seg-0000000000.log": parentSegment},
	} {
		t.Run(name, func(t *testing.T) {
			fs := store.NewMemFS()
			for file, literal := range files {
				raw, _ := hex.DecodeString(literal)
				writeFile(t, fs, file, raw)
			}
			d := openDisk(t, fs, 0, clock)
			if names := listFiles(t, fs); len(names) != 0 || d.Len() != 0 {
				t.Fatalf("after the open: files %v, %d entries; want the directory emptied", names, d.Len())
			}
			wantMiss(t, d, key)
			d.Put(key, page("refetched"), now.Add(time.Minute))
			wantBody(t, d, key, "refetched")
			wantBody(t, openDisk(t, fs, 0, clock), key, "refetched")
		})
	}
}

// cutFS is a store.FS whose next append fails after writing only `keep` bytes.
type cutFS struct {
	store.FS
	keep int // -1: writes pass
}

type cutFile struct {
	store.File
	fs *cutFS
}

func (f *cutFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	return cutFile{file, f}, err
}

func (f cutFile) Write(p []byte) (int, error) {
	if f.fs.keep < 0 {
		return f.File.Write(p)
	}
	keep := min(f.fs.keep, len(p))
	f.fs.keep = -1
	n, _ := f.File.Write(p[:keep])
	return n, errors.New("disk full")
}

// TestDiskTornTail truncates a segment's last record at every byte boundary,
// the way a crash mid-write (at the rescan) or a failed write (on a live
// tier) leaves it: every earlier record is served, the torn one is a miss,
// the next Put lands in a new segment, and a reopen agrees.
func TestDiskTornTail(t *testing.T) {
	// The torn record's body is long enough for the record to be 126 bytes,
	// one subtest per cut, as it was when responses carried a fetch time.
	const torn = "three, cut off"
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	whole := store.NewMemFS()
	d := openDisk(t, whole, 0, clock)
	d.Put("k1", page("one"), exp)
	d.Put("k2", page("two"), exp)
	before := d.Stats().Bytes
	d.Put("k3", page(torn), exp)
	data, _ := store.ReadAll(whole, segName(0))
	if int64(len(data)) != d.Stats().Bytes || before == 0 {
		t.Fatalf("segment is %d bytes, stats say %d (%d before the last record)", len(data), d.Stats().Bytes, before)
	}
	check := func(t *testing.T, d *Disk, fs store.FS, cut int64) {
		t.Helper()
		wantBody(t, d, "k1", "one")
		wantBody(t, d, "k2", "two")
		wantMiss(t, d, "k3")
		d.Put("k4", page("four"), exp)
		wantBody(t, d, "k4", "four")
		names := listFiles(t, fs)
		if len(names) != 2 {
			t.Fatalf("files = %v, want the torn segment and a new one", names)
		}
		if torn, _ := store.ReadAll(fs, names[0]); int64(len(torn)) != cut {
			t.Errorf("the torn segment is %d bytes, want it left at %d", len(torn), cut)
		}
		re := openDisk(t, fs, 0, clock)
		wantBody(t, re, "k1", "one")
		wantBody(t, re, "k2", "two")
		wantMiss(t, re, "k3")
		wantBody(t, re, "k4", "four")
		if re.Len() != 3 {
			t.Errorf("reopen indexed %d entries, want 3", re.Len())
		}
	}
	for cut := before; cut < int64(len(data)); cut++ {
		t.Run(fmt.Sprintf("rescan/%d", cut-before), func(t *testing.T) {
			fs := store.NewMemFS()
			writeFile(t, fs, segName(0), data[:cut])
			check(t, openDisk(t, fs, 0, clock), fs, cut)
		})
		t.Run(fmt.Sprintf("failed write/%d", cut-before), func(t *testing.T) {
			fs := &cutFS{FS: store.NewMemFS(), keep: -1}
			d := openDisk(t, fs, 0, clock)
			d.Put("k1", page("one"), exp)
			d.Put("k2", page("two"), exp)
			fs.keep = int(cut - before)
			d.Put("k3", page(torn), exp)
			if st := d.Stats(); st.Bytes != cut || st.Stores != 2 {
				t.Errorf("after the failed write: %+v, want %d bytes and 2 stores", st, cut)
			}
			check(t, d, fs, cut)
		})
	}
}

// TestDiskBitFlipMidSegment: one flipped bit in the middle record of a
// segment. At the rescan the records before it survive and the rest of that
// segment is dropped (the scan cannot trust anything past a bad frame); on a
// live tier, whose index already knows where each record starts, a Get of
// the flipped record drops only that entry and its neighbours still read.
func TestDiskBitFlipMidSegment(t *testing.T) {
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	d.Put("k1", page("one"), exp)
	start := d.Stats().Bytes
	d.Put("k2", page("two"), exp)
	end := d.Stats().Bytes
	d.Put("k3", page("three"), exp)
	data, _ := store.ReadAll(fs, segName(0))
	for _, at := range []int64{start, start + 5, (start + end) / 2, end - 1} {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0x10
		writeFile(t, fs, segName(0), flipped)

		wantBody(t, d, "k1", "one")
		wantMiss(t, d, "k2")
		wantBody(t, d, "k3", "three")
		if d.Len() != 2 {
			t.Errorf("flip at %d: live tier holds %d entries, want 2", at, d.Len())
		}
		re := openDisk(t, fs, 0, clock)
		wantBody(t, re, "k1", "one")
		wantMiss(t, re, "k2")
		wantMiss(t, re, "k3")

		writeFile(t, fs, segName(0), data)
		d = openDisk(t, fs, 0, clock)
	}
}

// raceBody is the body the race test files under key at version v: a Get that
// returns anything else has been sent to another record's bytes.
func raceBody(key string, v int) string {
	return key + "|" + strconv.Itoa(v) + "|" + strings.Repeat("x", (v*131+len(key)*17)%900)
}

// TestDiskConcurrentPutGetInvalidate is the race that made the tier a log:
// with one file per entry rewritten in place, a reader could open a file
// mid-rewrite and the tier dropped a valid entry. Eight goroutines work over
// 64 keys, each key written by one of them and read by all. A Get returns a
// miss or exactly a body that was put under that key — for the key's own
// writer, the last one — and never another key's. "churn" runs with a budget
// small enough that segments are reclaimed throughout and with Invalidate;
// "steady" has neither, and there a key that was ever put never misses.
func TestDiskConcurrentPutGetInvalidate(t *testing.T) {
	const goroutines, keys, steps = 8, 64, 1500
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	for _, mode := range []struct {
		name     string
		maxBytes int64
		churn    bool
	}{{"churn", 16 << 10, true}, {"steady", 0, false}} {
		for fsName, newFS := range map[string]func() store.FS{
			"MemFS": func() store.FS { return store.NewMemFS() },
			"DirFS": func() store.FS {
				fs, err := store.NewDirFS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return fs
			},
		} {
			t.Run(mode.name+"/"+fsName, func(t *testing.T) {
				d := openDisk(t, newFS(), mode.maxBytes, clock)
				defer d.Close()
				var stored [keys]atomic.Bool // set once the key's first Put has returned
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(g) + 1))
						last := make(map[int]int) // own key → version on disk, 0 when invalidated
						version := 0
						for i := 0; i < steps; i++ {
							k := rng.Intn(keys)
							key := "key-" + strconv.Itoa(k)
							own := k%goroutines == g
							switch op := rng.Intn(10); {
							case own && op < 4:
								version++
								d.Put(key, page(raceBody(key, version)), exp)
								last[k] = version
								stored[k].Store(true)
							case own && op == 4 && mode.churn:
								d.Invalidate(key)
								last[k] = 0
							default:
								must := !mode.churn && stored[k].Load()
								resp, _, ok := d.Get(key)
								if !ok {
									if must {
										t.Errorf("%s: a miss, though it was put and nothing evicts or invalidates", key)
									}
									continue
								}
								body := string(resp.Body)
								parts := strings.SplitN(body, "|", 3)
								v, err := strconv.Atoi(parts[min(1, len(parts)-1)])
								if len(parts) != 3 || err != nil || body != raceBody(key, v) {
									t.Errorf("%s: served %.40q, which was never put under it", key, body)
								} else if own && v != last[k] {
									t.Errorf("%s: its writer put version %d last and read %d", key, last[k], v)
								}
							}
						}
					}(g)
				}
				wg.Wait()
				st := d.Stats()
				if mode.churn && st.Evictions == 0 {
					t.Errorf("no segment was reclaimed: %+v", st)
				}
				if mode.maxBytes > 0 && st.Bytes > mode.maxBytes {
					t.Errorf("over budget after the run: %+v", st)
				}
			})
		}
	}
}

// diskUsage is what the tier's files really occupy.
func diskUsage(t testing.TB, fs store.FS) (files int, bytes int64) {
	t.Helper()
	for _, name := range listFiles(t, fs) {
		data, err := store.ReadAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		files++
		bytes += int64(len(data))
	}
	return files, bytes
}

// TestDiskBudgetHolds: after every Put the files fit the budget and
// Stats().Bytes is exactly what is on disk. A budget smaller than one record
// stores nothing and creates nothing.
func TestDiskBudgetHolds(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	for _, maxBytes := range []int64{2 << 10, 1 << 20} {
		fs := store.NewMemFS()
		d := openDisk(t, fs, maxBytes, clock)
		rng := rand.New(rand.NewSource(maxBytes))
		var written int64
		for i := 0; written < 4*maxBytes; i++ {
			body := strings.Repeat("b", 1+rng.Intn(int(min(maxBytes/3, 20<<10))))
			d.Put("k"+strconv.Itoa(i), page(body), exp)
			written += int64(len(body))
			files, onDisk := diskUsage(t, fs)
			if st := d.Stats(); st.Bytes > maxBytes || st.Bytes != onDisk || st.Segments != files || st.LiveBytes > st.Bytes {
				t.Fatalf("budget %d, after put %d: stats %+v, on disk %d bytes in %d files", maxBytes, i, st, onDisk, files)
			}
			wantBody(t, d, "k"+strconv.Itoa(i), body)
		}
		if st := d.Stats(); st.Evictions == 0 || st.Entries == 0 {
			t.Errorf("budget %d: %+v after writing four times the budget", maxBytes, st)
		}
	}

	fs := store.NewMemFS()
	d := openDisk(t, fs, 64, clock)
	d.Put("k", page(strings.Repeat("b", 200)), exp)
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Stores != 0 || len(listFiles(t, fs)) != 0 {
		t.Errorf("a budget below one record: stats %+v, files %v; want nothing stored, nothing created", st, listFiles(t, fs))
	}
}

func TestDiskBudgetEvicts(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	d, err := OpenDisk(store.NewMemFS(), 2048, clock)
	if err != nil {
		t.Fatal(err)
	}
	exp := now.Add(time.Hour)
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		d.Put(k, page(strings.Repeat(k, 512)), exp)
	}
	st := d.Stats()
	if st.Bytes > 2048 {
		t.Errorf("disk bytes = %d over budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no disk evictions under pressure")
	}
}

// TestDiskCarriesUsedEntriesForward: eviction is first-in-first-out by
// segment, and recency comes from the demotions. A key that is promoted and
// demoted again every round is appended afresh whenever its record has
// drifted into the oldest eighth of the log, so it survives churn of four
// times the budget while writing far fewer records than rounds; a key nobody
// touches again is reclaimed with its segment.
func TestDiskCarriesUsedEntriesForward(t *testing.T) {
	const maxBytes = 64 << 10
	now := time.Now()
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	d := openDisk(t, store.NewMemFS(), maxBytes, clock)
	hot, filler := page(strings.Repeat("h", 1000)), strings.Repeat("f", 1000)
	d.Put("cold", page("cold"), exp)
	d.Put("hot", hot, exp)
	rounds := 0
	for written := 0; written < 4*maxBytes; rounds++ {
		resp, expires, ok := d.Get("hot") // the promotion
		if !ok || !bytes.Equal(resp.Body, hot.Body) {
			t.Fatalf("round %d: the key in use was lost (%+v)", rounds, d.Stats())
		}
		d.Put("hot", resp, expires) // and the next demotion
		// Less than an eighth of the budget between two demotions.
		for i := 0; i < 4; i++ {
			d.Put(fmt.Sprintf("fill-%d-%d", rounds, i), page(filler), exp)
			written += len(filler)
		}
	}
	wantMiss(t, d, "cold")
	st := d.Stats()
	rewrites := st.Stores - int64(4*rounds) - 2
	if rewrites < 3 || rewrites > int64(rounds)/4 || st.Clean != int64(rounds)-rewrites {
		t.Errorf("%d rounds: the key in use was re-appended %d times and found clean %d times (%+v)", rounds, rewrites, st.Clean, st)
	}
}

// TestDiskCarryForwardIsNotAnEviction: a full tier of eight records, one
// segment each, and the oldest entry demoted again. Its record is aging, so
// it is appended afresh, and that append reclaims the segment holding the old
// record. Nothing was lost: all eight keys read, and no eviction is counted.
func TestDiskCarryForwardIsNotAnEviction(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	body := func(i int) string { return strings.Repeat(strconv.Itoa(i), 1000) }
	probe := openDisk(t, store.NewMemFS(), 0, clock)
	probe.Put("k0", page(body(0)), exp)
	record := probe.Stats().Bytes

	d := openDisk(t, store.NewMemFS(), 8*record, clock)
	for i := 0; i < 8; i++ {
		d.Put("k"+strconv.Itoa(i), page(body(i)), exp)
	}
	d.Put("k0", page(body(0)), exp)
	if st := d.Stats(); st.Stores != 9 || st.Clean != 0 || st.Entries != 8 || st.Segments != 8 || st.Evictions != 0 {
		t.Errorf("after carrying k0 forward: %+v; want 9 stores, 8 entries in 8 segments, no eviction", st)
	}
	for i := 0; i < 8; i++ {
		wantBody(t, d, "k"+strconv.Itoa(i), body(i))
	}
	d.Put("k8", page(body(8)), exp)
	wantMiss(t, d, "k1")
	if st := d.Stats(); st.Evictions != 1 {
		t.Errorf("after a ninth key: %+v; want the one eviction", st)
	}
}

// TestDiskTombstone: Invalidate then reopen does not resurrect the entry,
// whether the tombstone shares a segment with the record or not; and a Put
// after the Invalidate wins over the tombstone.
func TestDiskTombstone(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, clock)
	d.Put("a", page("a1"), exp)
	d.Put("b", page("b1"), exp)
	d.Put("c", page("c1"), exp)
	d.Invalidate("a")
	d.Invalidate("never stored")
	wantMiss(t, d, "a")

	d = openDisk(t, fs, 0, clock) // b's tombstone goes to the next segment
	wantMiss(t, d, "a")
	d.Invalidate("b")
	d.Invalidate("c")
	d.Put("c", page("c2"), exp)

	d = openDisk(t, fs, 0, clock)
	wantMiss(t, d, "a")
	wantMiss(t, d, "b")
	wantBody(t, d, "c", "c2")
	if d.Len() != 1 {
		t.Errorf("%d entries after the reopen, want 1", d.Len())
	}

	// A tombstone alone in its segment is kept while the segment with the
	// record it buries is: it has to hold at the open after this one too.
	fs = store.NewMemFS()
	d = openDisk(t, fs, 0, clock)
	d.Put("x", page("x1"), exp)
	d.Put("y", page("y1"), exp)
	d = openDisk(t, fs, 0, clock)
	d.Invalidate("x")
	for i := 0; i < 2; i++ {
		d = openDisk(t, fs, 0, clock)
		wantMiss(t, d, "x")
		wantBody(t, d, "y", "y1")
	}
}

// TestDiskCreatesNothingUntilPut: a node whose memory cache never overflows
// has a disk tier that never touches the filesystem after its open.
func TestDiskCreatesNothingUntilPut(t *testing.T) {
	dir, err := store.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]store.FS{"MemFS": store.NewMemFS(), "DirFS": dir, "Sub": store.Sub(store.NewMemFS(), "cache")} {
		d := openDisk(t, fs, 0, nil)
		wantMiss(t, d, "a")
		d.Invalidate("a")
		if err := d.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if names := listFiles(t, fs); len(names) != 0 {
			t.Errorf("%s: files %v, want none", name, names)
		}
	}
}

// TestDiskClose: Close ends the writing, not the reading.
func TestDiskClose(t *testing.T) {
	fs := store.NewMemFS()
	d := openDisk(t, fs, 0, nil)
	exp := time.Now().Add(time.Hour)
	d.Put("a", page("a"), exp)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.Put("b", page("b"), exp)
	wantBody(t, d, "a", "a")
	wantMiss(t, d, "b")
	if _, onDisk := diskUsage(t, fs); onDisk != d.Stats().Bytes || d.Stats().Stores != 1 {
		t.Errorf("a Put after Close reached the disk: %+v", d.Stats())
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// seqFS hands out read handles that can only read forward, which is all
// store.FS promises (the benchmark's tracing wrapper is one such).
type seqFS struct{ store.FS }

func (f seqFS) Open(name string) (io.ReadCloser, error) {
	rc, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct{ io.ReadCloser }{rc}, nil
}

// TestDiskReadsThroughAHandleWithoutReadAt: the forward-read arm of Get
// returns what the positional arm does, record for record.
func TestDiskReadsThroughAHandleWithoutReadAt(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fs := store.NewMemFS()
	d := openDisk(t, fs, 256<<10, clock)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ { // several segments, some records superseded
		d.Put("k"+strconv.Itoa(rng.Intn(120)), page(strings.Repeat(strconv.Itoa(i%10), 1+rng.Intn(4000))), now.Add(time.Duration(1+i)*time.Minute))
	}
	seq := openDisk(t, seqFS{fs}, 256<<10, clock)
	if seq.Len() != d.Len() || seq.Stats().Segments < 3 {
		t.Fatalf("reopen indexed %d entries in %d segments, the writer holds %d", seq.Len(), seq.Stats().Segments, d.Len())
	}
	for i := 0; i < 120; i++ {
		key := "k" + strconv.Itoa(i)
		want, wantExp, ok1 := d.Get(key)
		got, gotExp, ok2 := seq.Get(key)
		if ok1 != ok2 || !reflect.DeepEqual(want, got) || !wantExp.Equal(gotExp) {
			t.Errorf("%s: forward read %+v (%v, hit %v), positional read %+v (%v, hit %v)", key, got, gotExp, ok2, want, wantExp, ok1)
		}
	}
	if st := seq.Stats(); st.Hits == 0 || st.Misses != d.Stats().Misses {
		t.Errorf("forward-read tier: %+v; positional: %+v", st, d.Stats())
	}
}

func TestFlushToDiskOnShutdown(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fs := store.NewMemFS()
	c, d := newDiskCache(t, fs, 4, clock)
	c.Put("a", page("body-a"))
	c.Put("b", page("body-b"))
	if d.Len() != 0 {
		t.Fatal("nothing should be on disk before flush")
	}
	c.FlushToDisk()
	if d.Len() != 2 {
		t.Fatalf("disk entries after flush = %d, want 2", d.Len())
	}
	// A fresh cache over the same FS serves both from disk.
	c2, _ := newDiskCache(t, fs, 4, clock)
	for _, k := range []string{"a", "b"} {
		if resp := c2.Get(k); resp == nil || string(resp.Body) != "body-"+k {
			t.Fatalf("flushed entry %s not rewarmed", k)
		}
	}
}

// TestNoStoreNeverCached is the Cache-Control regression test: responses
// marked no-store or private must not enter the memory cache, and can
// never demote to the disk tier.
func TestNoStoreNeverCached(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c, d := newDiskCache(t, store.NewMemFS(), 2, clock)

	for _, cc := range []string{"no-store", "private", "no-store, max-age=600", "private, max-age=600"} {
		r := httpmsg.NewHTMLResponse(200, "secret")
		r.Header.Set("Cache-Control", cc)
		if c.Put("k-"+cc, r) {
			t.Errorf("response with Cache-Control %q was stored", cc)
		}
	}
	if c.Len() != 0 || d.Len() != 0 {
		t.Fatalf("uncacheable responses landed: mem=%d disk=%d", c.Len(), d.Len())
	}

	// Defense in depth: even if such a response were handed to the tier
	// directly, Disk.Put re-checks Cacheable.
	r := httpmsg.NewHTMLResponse(200, "secret")
	r.Header.Set("Cache-Control", "no-store")
	d.Put("direct", r, now.Add(time.Hour))
	if d.Len() != 0 {
		t.Fatal("disk tier accepted a no-store response")
	}
}

// FuzzDiskSegment hands OpenDisk arbitrary bytes as a segment file, beside a
// well-formed one. The open never panics, and every entry it indexes either
// reads back under its own key or is dropped by the read; nothing indexed is
// left unreadable, and the budget holds.
func FuzzDiskSegment(f *testing.F) {
	now := time.Unix(1_800_000_000, 0)
	clock := func() time.Time { return now }
	exp := now.Add(time.Hour)
	seedFS := store.NewMemFS()
	d := openDisk(f, seedFS, 0, clock)
	d.Put("http://example.org/a", page("a"), exp)
	d.Put("http://example.org/b", page(strings.Repeat("b", 300)), exp)
	d.Put("http://example.org/a", page("a2"), exp.Add(time.Minute))
	d.Invalidate("http://example.org/b")
	good, _ := store.ReadAll(seedFS, segName(0))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(frameRecord("k", exp, []byte("not the codec")))
	f.Add(frameRecord("k", time.Unix(0, 0), nil))
	f.Add(store.AppendFrame(nil, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))
	f.Add(store.AppendFrame(nil, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := store.NewMemFS()
		writeFile(t, fs, segName(3), good)
		writeFile(t, fs, segName(4), data)
		d, err := OpenDisk(fs, 1<<20, clock)
		if err != nil {
			t.Fatal(err)
		}
		// Every key the open can have indexed is in one of the two files.
		keys := make(map[string]bool)
		for _, file := range [][]byte{good, data} {
			store.ReplayFrames(file, func(p []byte) error {
				if key, _, _, ok := splitDiskPayload(p); ok {
					keys[string(key)] = true
				}
				return nil
			})
		}
		hits := 0
		for key := range keys {
			if _, _, ok := d.Get(key); ok {
				hits++
			} else if _, still := d.log.Lookup(hashKey(key)); still {
				t.Errorf("%q: a miss, and still indexed", key)
			}
		}
		if hits != d.Len() {
			t.Errorf("%d entries read back, %d indexed", hits, d.Len())
		}
		_, onDisk := diskUsage(t, fs)
		if st := d.Stats(); st.Bytes != onDisk || st.Bytes > 1<<20 || st.LiveBytes > st.Bytes || st.LiveBytes < 0 {
			t.Errorf("stats %+v, %d bytes on disk", st, onDisk)
		}
		d.Put("after", page("after"), exp)
		wantBody(t, d, "after", "after")
	})
}

// churnMix is the cache_churn workload's object sizes: 1-10 KiB, small
// objects most common.
func churnMix(n int) []*httpmsg.Response {
	rng := rand.New(rand.NewSource(1))
	out := make([]*httpmsg.Response, n)
	for i := range out {
		size := 1 << 10 * (1 + rng.Intn(1+rng.Intn(10)))
		out[i] = page(strings.Repeat("x", size))
	}
	return out
}

// benchDisk opens a tier on a fresh directory and fills it with n entries of
// the churn mix.
func benchDisk(b *testing.B, n int) (*Disk, *store.DirFS, []*httpmsg.Response, time.Time) {
	b.Helper()
	fs, err := store.NewDirFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	d := openDisk(b, fs, 0, nil)
	resps := churnMix(n)
	exp := time.Now().Add(time.Hour)
	for i, r := range resps {
		d.Put("GET http://churn.example.org/object/"+strconv.Itoa(i), r, exp)
	}
	return d, fs, resps, exp
}

const benchEntries = 8192

// BenchmarkDiskPut: first-time demotions, the cost the cache_churn warm-up
// pays 4096 times. files/op is how many files each Put created.
func BenchmarkDiskPut(b *testing.B) {
	fs, err := store.NewDirFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	d := openDisk(b, fs, 0, nil)
	defer d.Close()
	resps := churnMix(benchEntries)
	exp := time.Now().Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Put("GET http://churn.example.org/object/"+strconv.Itoa(i), resps[i%len(resps)], exp)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(listFiles(b, fs)))/float64(b.N), "files/op")
}

var benchSink *httpmsg.Response

// BenchmarkDiskGet: disk hits over a warm tier of 8192 entries.
func BenchmarkDiskGet(b *testing.B) {
	d, _, _, _ := benchDisk(b, benchEntries)
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _, ok := d.Get("GET http://churn.example.org/object/" + strconv.Itoa(i*7919%benchEntries))
		if !ok {
			b.Fatal("miss on a warm tier")
		}
		benchSink = resp
	}
}

// BenchmarkDiskRescan: the restart-rewarm cost no benchmark/ workload shows,
// OpenDisk over a directory holding 8192 entries. files is how many files
// that directory has, which is how many the open reads.
func BenchmarkDiskRescan(b *testing.B) {
	d, fs, _, _ := benchDisk(b, benchEntries)
	d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re := openDisk(b, fs, 0, nil)
		if re.Len() != benchEntries {
			b.Fatalf("rescan indexed %d of %d entries", re.Len(), benchEntries)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(listFiles(b, fs))), "files")
}

// TestExpiredCopyKeptForItsValidators: once expired, a copy with an ETag is
// kept in either tier, across a reopen of the disk tier too, and so is a
// reply stale on arrival with one; a copy without a validator is dropped. A
// kept copy is never served, encoded for a peer or reported by Until; Lookup
// alone answers it, with the tier that keeps it. That answer promotes a disk
// record, so a 304 renews it and nothing is written or fetched again.
func TestExpiredCopyKeptForItsValidators(t *testing.T) {
	clock := newFakeClock()
	fs := store.NewMemFS()
	reply := func(body string, maxAge int, etag bool) *httpmsg.Response {
		r := page(body)
		r.SetMaxAge(maxAge)
		if etag {
			r.Header.Set("Etag", `"`+body+`"`)
		}
		return r
	}
	first, _ := newDiskCache(t, fs, 8, clock.Now)
	first.Put("disk", reply("disk", 10, true))
	first.FlushToDisk()
	clock.Advance(time.Hour)
	c, d := newDiskCache(t, fs, 8, clock.Now) // reopens the disk tier, its record expired
	c.Put("memory", reply("memory", 10, true))
	c.Put("untagged", reply("untagged", 10, false))
	if c.Put("arrived", reply("arrived", 0, true)) {
		t.Error("a reply stale on arrival was reported stored")
	}
	clock.Advance(time.Hour)
	for key, tier := range map[string]string{"memory": "memory", "arrived": "memory", "disk": "disk", "untagged": ""} {
		if c.Get(key) != nil {
			t.Errorf("%s: an expired copy served", key)
		}
		if _, _, ok := c.Encoded(key); ok {
			t.Errorf("%s: an expired copy encoded for a peer", key)
		}
		if _, ok := c.Until(key); ok {
			t.Errorf("%s: Until reports an expired copy", key)
		}
		resp, stale := c.Lookup(key)
		if resp != nil || stale.Tier != tier || (tier != "" && stale.Header.Get("Etag") != `"`+key+`"`) {
			t.Errorf("%s: Lookup answers %v, %+v; want the %q tier's stale copy", key, resp, stale, tier)
		}
	}
	if d.Len() != 1 || c.Len() != 3 {
		t.Fatalf("%d disk and %d memory entries, want the disk record, promoted beside the two kept memory entries", d.Len(), c.Len())
	}
	writes := fs.Writes()
	nm := httpmsg.NewResponse(http.StatusNotModified)
	nm.Header.Set("Etag", `"disk"`)
	if r := c.Refresh("disk", nm); r == nil || string(r.Body) != "disk" || c.Get("disk") == nil {
		t.Errorf("the 304 did not renew the promoted record: %v", r)
	}
	if fs.Writes() != writes {
		t.Error("the renewal wrote to disk")
	}
}

// TestGetStaleReadsTheDiskTier: GetStale hands back a stale disk record's
// whole body whether or not Lookup could promote the record into memory. A
// body past the shard's byte budget stays on disk alone and is read from
// there.
func TestGetStaleReadsTheDiskTier(t *testing.T) {
	body := strings.Repeat("b", 1024)
	for _, tc := range []struct {
		name     string
		maxBytes int64
		promoted int
	}{{"promoted", 1 << 20, 1}, {"past the memory budget", 64, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			d := openDisk(t, store.NewMemFS(), 1<<20, clock.Now)
			c := New(Config{MaxBytes: tc.maxBytes, Clock: clock.Now, L2: d})
			r := page(body)
			r.Header.Set("Etag", `"v1"`)
			d.Put("k", r, clock.Now().Add(time.Minute))
			clock.Advance(time.Hour)
			if _, stale := c.Lookup("k"); stale.Tier != "disk" {
				t.Fatalf("Lookup reports %+v, want the disk tier's stale copy", stale)
			}
			if c.Len() != tc.promoted {
				t.Fatalf("%d memory entries after Lookup, want %d", c.Len(), tc.promoted)
			}
			if got := c.GetStale("k"); got == nil || string(got.Body) != body || got.Header.Get("Etag") != `"v1"` {
				t.Errorf("GetStale: %v, want the disk record's copy", got)
			}
		})
	}
}
