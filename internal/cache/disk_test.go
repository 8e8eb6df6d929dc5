package cache

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"net/http"
	"strings"
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
	if c.ShardCount() != 1 {
		t.Fatalf("want 1 shard for exact LRU, got %d", c.ShardCount())
	}
	return c, d
}

func page(body string) *httpmsg.Response {
	r := httpmsg.NewHTMLResponse(200, body)
	r.SetMaxAge(600)
	return r
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
	// Past expiry the disk entry is a miss and its file is deleted.
	now = now.Add(time.Hour)
	if c.Get("a") != nil {
		t.Fatal("expired disk entry served")
	}
	if d.Len() != 0 {
		t.Fatal("expired disk entry not dropped")
	}

	// A corrupted file is rejected at scan time.
	now = now.Add(-time.Hour)
	c.Put("c", page("body-c")) // b → disk
	names, _ := fs.List("")
	if len(names) != 1 {
		t.Fatalf("files = %v", names)
	}
	data, _ := store.ReadAll(fs, names[0])
	data[len(data)-1] ^= 0xff
	w, _ := fs.Create(names[0])
	w.Write(data)
	w.Close()
	d2, err := OpenDisk(fs, 1<<20, clock)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 0 {
		t.Fatal("corrupt entry survived the scan")
	}
	if names, _ := fs.List(""); len(names) != 0 {
		t.Error("corrupt file not deleted")
	}
}

// frameDiskEntry builds an entry file with a valid checksum around an
// arbitrary body, so the tests below reach the body decode.
func frameDiskEntry(key string, expires time.Time, body []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(key)))
	payload = append(payload, key...)
	payload = binary.BigEndian.AppendUint64(payload, uint64(expires.UnixNano()))
	payload = append(payload, body...)
	return append(binary.BigEndian.AppendUint32(nil, crc32.Checksum(payload, diskCRC)), payload...)
}

func writeFile(t *testing.T, fs store.FS, name string, data []byte) {
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

// TestDiskDropsEntryWhoseBodyIsNotInTheCodec: a fresh, checksum-clean entry
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
		bad := frameDiskEntry(key, now.Add(time.Minute), body)

		fs := store.NewMemFS()
		writeFile(t, fs, fileName(key), bad)
		d, err := OpenDisk(fs, 0, clock)
		if err != nil {
			t.Fatal(err)
		}
		if names, _ := fs.List(""); d.Len() != 0 || len(names) != 0 {
			t.Errorf("%s body: boot scan kept the entry (%d indexed, files %v)", name, d.Len(), names)
		}

		d.Put(key, page("good"), now.Add(time.Minute))
		writeFile(t, fs, fileName(key), bad)
		if resp, _, ok := d.Get(key); ok {
			t.Errorf("%s body: Get served %+v", name, resp)
		}
		if names, _ := fs.List(""); d.Len() != 0 || len(names) != 0 {
			t.Errorf("%s body: Get kept the entry (%d indexed, files %v)", name, d.Len(), names)
		}
	}
}

// TestDiskEntryGolden pins the entry file to bytes captured from the build
// that still had the gob arm: the same name and the same contents, and a
// cache directory that build left behind rewarms this one without a refetch.
func TestDiskEntryGolden(t *testing.T) {
	const (
		key        = "http://example.org/a"
		goldenName = "6a2d6a47a2828fe021aefacd33629435.ent"
		golden     = "7dee2fb814687474703a2f2f6578616d706c652e6f72672f6117979d0c2e71580000c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000006656467652d31018a80d0e2c6bfce972f"
	)
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	resp := &httpmsg.Response{
		Status: 200,
		Header: http.Header{"Content-Type": {"text/html"}, "Cache-Control": {"max-age=60"}},
		Body:   []byte("<html>hi</html>"),
		Via:    "edge-1", Fetched: time.Unix(1700000000, 5),
	}
	fs := store.NewMemFS()
	d, err := OpenDisk(fs, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(key, resp, now.Add(time.Minute))
	data, err := store.ReadAll(fs, goldenName)
	if err != nil {
		names, _ := fs.List("")
		t.Fatalf("entry file %s: %v (have %v)", goldenName, err, names)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Errorf("entry file = %s, want %s", got, golden)
	}

	old := store.NewMemFS()
	raw, _ := hex.DecodeString(golden)
	writeFile(t, old, goldenName, raw)
	d2, err := OpenDisk(old, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	got, expires, ok := d2.Get(key)
	if !ok || string(got.Body) != "<html>hi</html>" || got.Via != "edge-1" || !expires.Equal(now.Add(time.Minute)) {
		t.Errorf("captured entry reads back as %+v, expires %v, ok %v", got, expires, ok)
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
