package cache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

var raceEnabled bool

// specwebReplies returns n origin replies as a SPECweb static file comes off
// the wire, four header fields each, 80 % with 1 KiB bodies and 20 % with
// 10 KiB, and the sum of their body lengths.
func specwebReplies(n int) ([]byte, int) {
	var wire bytes.Buffer
	bodies := 0
	for i := range n {
		size := 1 << 10
		if i%5 == 4 {
			size = 10 << 10
		}
		fmt.Fprintf(&wire, "HTTP/1.1 200 OK\r\nCache-Control: max-age=3600\r\nContent-Length: %d\r\n"+
			"Content-Type: application/octet-stream\r\nDate: Sat, 17 Oct 2026 12:00:00 GMT\r\n\r\n", size)
		wire.Write(bytes.Repeat([]byte{'x'}, size))
		bodies += size
	}
	return wire.Bytes(), bodies
}

// TestMemoryTierBytesPerEntry holds what the memory tier spends on one entry
// beyond its body: 4 096 SPECweb-shaped replies are read through the
// upstream client's codec, as a cold miss reads them, and stored; the live
// heap after a collection plus the arena's carved bytes, less the body
// bytes, is divided among the entries. It counts the key, the entry with its
// header bytes, the shard maps, and what the arena's size classes and chunk
// bookkeeping add to the bodies. Measured on go1.24 amd64: 366 to 368 B, of
// which 56 B is the key's arena slot and the rest heap; 399 B when the entry
// kept a fetch time (a 24-byte time.Time, which took the entry from the
// 144-byte size class to the 176-byte one); 407 B, all of it heap, when the
// key was a string on the heap and the shard maps were keyed by it; 406 B
// when the bodies were on the heap, 965 B when an entry held a cloned
// *httpmsg.Response on a list element of its own.
func TestMemoryTierBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the tier's")
	}
	const n, ceiling = 4096, 370
	wire, bodies := specwebReplies(n)
	now := time.Unix(1792238400, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Config{MaxEntries: 2 * n, MaxBytes: 1 << 30, Clock: func() time.Time { return now }})
	cc := httpmsg.NewClientConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(wire), io.Discard})
	for i := range n {
		resp, err := cc.ReadResponse("GET")
		if err == nil {
			resp.Body, err = cc.ReadBody()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !c.PutUntil(fmt.Sprintf("GET http://specweb.example/file_set/dir%05d/class%d_%d", i/9, i%5/4, i%9), resp, now.Add(time.Hour)) {
			t.Fatalf("reply %d was not stored", i)
		}
	}
	cc = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != n {
		t.Fatalf("%d entries, want %d", c.Len(), n)
	}
	carved := c.Stats().Arena.Carved
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc) + carved - int64(bodies)) / n
	t.Logf("heap and arena per entry beyond its body: %d B (%d entries, %d body bytes, %d carved)", per, n, bodies, carved)
	if per > ceiling {
		t.Errorf("an entry costs %d B beyond its body, ceiling %d B", per, ceiling)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(wire)
}

// TestDiskIndexBytesPerEntry holds what the disk tier's index spends on one
// entry: 8 192 entries under cache_churn-shaped keys (its 8 192 SPECweb
// files, as a node's cache keys them) are demoted to a tier on real files, and
// the live heap after a collection and the bytes the index maps are divided
// among them. The heap is what the log keeps per record beside the index
// (its segment's list of key hashes, for reclaiming); the mapped bytes are
// the index's slots, which the collector does not see. Measured on go1.24
// amd64: 8 to 9 B of heap, the 8-byte hash per record, and 80 B mapped (a Go
// map from key strings to records, with each segment's list of those
// strings, cost 191 B of heap). The ceilings are those plus about 5 %.
func TestDiskIndexBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the tier's")
	}
	const n, heapCeiling, mappedCeiling = 8192, 10, 84
	now := time.Unix(1792238400, 0)
	fs, err := store.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{'x'}, 1<<10)
	stored := &httpmsg.Stored{Status: 200, Header: httpmsg.FromHTTPHeader(http.Header{
		"Cache-Control":  {"max-age=3600"},
		"Content-Length": {"1024"},
		"Content-Type":   {"application/octet-stream"},
		"Date":           {"Sat, 17 Oct 2026 12:00:00 GMT"},
	}), Body: body}
	keys := make([][]byte, n)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("GET http://127.0.0.1:40123/file_set/dir/class%d_%d?v=%d", k%5/2%2, k%9, k))
	}
	// Two collections: the first queues the finalizers of what earlier
	// tests left (arenas, logs), the second frees what they held.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := OpenDisk(fs, 0, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		d.put(hashKey(string(key)), key, stored, now.Add(time.Hour))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := d.Stats()
	if st.Entries != n {
		t.Fatalf("%d entries, want %d", st.Entries, n)
	}
	heap := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	mapped := st.IndexBytes / n
	t.Logf("per disk entry: %d B of heap, %d B mapped (%d entries in %d segments)", heap, mapped, n, st.Segments)
	if heap > heapCeiling || mapped > mappedCeiling {
		t.Errorf("a disk entry costs %d B of heap (ceiling %d) and %d B mapped (ceiling %d)", heap, heapCeiling, mapped, mappedCeiling)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(keys)
}

// TestPromotionAllocCeiling holds one client hit (Cache.GetFor on a pooled
// request that lends a reused buffer, as a client connection's does) of an
// entry only the disk tier has to what it allocates: the record is read into
// a pooled buffer, its header bytes are copied out of it as one string and
// its body into an arena slot and into the lent buffer, the entry goes on
// the LRU list, and the hit's response is the one the request lends.
// Measured on go1.24 amd64 over MemFS: 4 allocations since the request lends
// the response (5 with a response of its own; 8 earlier, 9 through
// Get, whose body copy is a fresh one; 10 when the record was read into a
// buffer of its own and its body copied onto the heap, 25 when it was
// decoded into a header map with a string per field and the entry cloned
// it).
func TestPromotionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the tier's")
	}
	const ceiling = 4
	const warm, runs = 10, 400
	now := time.Unix(1792238400, 0)
	clock := func() time.Time { return now }
	d := openDisk(t, store.NewMemFS(), 0, clock)
	resp := &httpmsg.Response{
		Status: 200,
		Header: httpmsg.FromHTTPHeader(http.Header{
			"Cache-Control":  {"max-age=3600"},
			"Content-Length": {"1024"},
			"Content-Type":   {"application/octet-stream"},
			"Date":           {"Sat, 17 Oct 2026 12:00:00 GMT"},
		}),
		Body: bytes.Repeat([]byte{'x'}, 1024),
		Via:  "edge-1",
	}
	keys := make([]string, warm+runs)
	for i := range keys {
		keys[i] = fmt.Sprintf("GET http://specweb.example/file_set/class0_%d", i)
		d.Put(keys[i], resp, now.Add(time.Hour))
	}
	c := New(Config{MaxEntries: 2 * len(keys), Clock: clock, L2: d})
	next := 0
	var lent httpmsg.Reuse
	var kb []byte
	promote := func() {
		req := httpmsg.AcquireRequest()
		req.SetReuse(&lent)
		kb = append(kb[:0], keys[next]...)
		got := c.GetFor(kb, req)
		next++
		if got == nil || len(got.Body) != 1024 || got.Header != resp.Header {
			t.Fatalf("promotion %d: %+v", next, got)
		}
		req.Release()
	}
	for range warm {
		promote()
	}
	allocs := testing.AllocsPerRun(runs-1, promote) // AllocsPerRun calls once more to warm up
	t.Logf("allocations per promotion: %.1f", allocs)
	if allocs > ceiling {
		t.Errorf("a promotion allocates %.1f times, ceiling %d", allocs, ceiling)
	}
	if st := c.Stats(); st.DiskHits != int64(len(keys)) || st.Entries != len(keys) {
		t.Errorf("stats = %+v, want every Get promoted", st)
	}
}

// TestDemotionWritesWhatDiskPutWrites: an entry the memory tier evicts goes
// to disk as the record Disk.Put writes for the response it was stored
// from, byte for byte, so the stored header bytes need no re-encoding on the
// way down. The responses cover every field of the codec, repeated and empty
// values, and more keys than sort on the stack.
func TestDemotionWritesWhatDiskPutWrites(t *testing.T) {
	now := time.Unix(1792238400, 0)
	clock := func() time.Time { return now }
	many := http.Header{"Cache-Control": {"max-age=60"}}
	for i := range 20 {
		many[fmt.Sprintf("X-Field-%02d", i)] = []string{strings.Repeat("v", 130*i), "", "again"}
	}
	for name, resp := range map[string]*httpmsg.Response{
		"specweb": {
			Status: 200,
			Header: httpmsg.FromHTTPHeader(http.Header{"Cache-Control": {"max-age=60"}, "Content-Type": {"text/html"}, "Link": {"</a.css>", "</b.js>"}, "X-Empty": {""}}),
			Body:   []byte("<html>hi</html>"),
			Via:    "edge-1",
		},
		"flags and many keys": {Status: 200, Header: httpmsg.FromHTTPHeader(many), Body: bytes.Repeat([]byte{'b'}, 3000), Generated: true, FromCache: true},
		"no body":             {Status: 200, Header: httpmsg.FromHTTPHeader(http.Header{"Cache-Control": {"max-age=60"}})},
	} {
		const key = "GET http://example.org/a"
		expires := now.Add(time.Minute)
		direct := store.NewMemFS()
		openDisk(t, direct, 0, clock).Put(key, resp, expires)

		demoted := store.NewMemFS()
		c := New(Config{MaxEntries: 1, Clock: clock, L2: openDisk(t, demoted, 0, clock)})
		if !c.PutUntil(key, resp, expires) {
			t.Fatalf("%s: not stored", name)
		}
		c.PutUntil("GET http://example.org/b", &httpmsg.Response{Status: 200, Header: httpmsg.FromHTTPHeader(http.Header{"Cache-Control": {"max-age=1"}})}, now.Add(time.Second))
		if st := c.Stats(); st.Demotions != 1 {
			t.Fatalf("%s: stats %+v, want one demotion", name, st)
		}
		want, err := store.ReadAll(direct, segName(0))
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadAll(demoted, segName(0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the demoted record is\n%x\nDisk.Put wrote\n%x", name, got, want)
		}
	}
}

// TestRefreshUpdatesStoredHeader: a 304 that renews a stored 200 also
// replaces the header fields it carries (RFC 9111 §4.3.4, by the rules of
// §3.2), Content-Length excepted, so the renewed entry's hits and its later
// demotion carry the new Cache-Control; fields the 304 does not carry stay.
func TestRefreshUpdatesStoredHeader(t *testing.T) {
	clock := newFakeClock()
	d := openDisk(t, store.NewMemFS(), 0, clock.Now)
	c := New(Config{Clock: clock.Now, L2: d})
	key := "GET http://example.org/page"
	stored := okResponse("stored body")
	stored.Header.Set("Etag", `"a"`)
	stored.Header.Set("X-Origin", "kept")
	stored.SetMaxAge(10)
	if !c.Put(key, stored) {
		t.Fatal("the 200 was not stored")
	}
	before := c.Get(key)

	clock.Advance(5 * time.Second)
	nm := httpmsg.NewResponse(http.StatusNotModified)
	nm.Header.Set("Etag", `"a"`)
	nm.Header.Set("Content-Length", "0")
	nm.Header.Set("Date", "Mon, 01 Jun 2026 00:00:05 GMT")
	nm.SetMaxAge(600)
	if c.Refresh(key, nm) == nil {
		t.Fatal("the 304 did not renew the stored 200")
	}
	check := func(where string, got *httpmsg.Response) {
		t.Helper()
		want := http.Header{
			"Cache-Control":  {"max-age=600"},
			"Content-Length": {"11"},
			"Content-Type":   {"text/plain; charset=utf-8"},
			"Date":           {"Mon, 01 Jun 2026 00:00:05 GMT"},
			"Etag":           {`"a"`},
			"X-Origin":       {"kept"},
		}
		if got == nil || string(got.Body) != "stored body" || got.Header != httpmsg.FromHTTPHeader(want) {
			t.Errorf("%s: %+v, want header %v", where, got, want)
		}
	}
	clock.Advance(10 * time.Second) // past the 200's own max-age
	check("a hit at +15 s", c.Get(key))
	if before.Header.Get("Cache-Control") != "max-age=10" {
		t.Errorf("a hit taken before the renewal changed: %v", before.Header)
	}
	c.FlushToDisk()
	fromDisk, _, ok := d.Get(key)
	if !ok {
		t.Fatal("the renewed entry did not reach the disk tier")
	}
	check("the demoted record", fromDisk)
}

// TestRefreshToUnstorableDropsEntry: a 304 that validates the stored 200 but
// says no-store leaves no entry to serve; before the renewal wrote the
// header, it only renewed the expiry.
func TestRefreshToUnstorableDropsEntry(t *testing.T) {
	c := New(Config{})
	key := "GET http://example.org/page"
	stored := okResponse("stored body")
	stored.Header.Set("Etag", `"a"`)
	c.Put(key, stored)
	nm := httpmsg.NewResponse(http.StatusNotModified)
	nm.Header.Set("Etag", `"a"`)
	nm.Header.Set("Cache-Control", "no-store")
	if c.Refresh(key, nm) != nil {
		t.Error("Refresh renewed an entry its 304 made unstorable")
	}
	if got := c.Get(key); got != nil {
		t.Errorf("the entry still serves: %v", got.Header)
	}
}

// TestRenewalUnderConcurrentHits: 304s renew one entry while four goroutines
// take hits of it and demote it; every hit and every record sees one
// renewal's header whole, never fields of two, and under the race detector
// no renewal writes what a hit is reading.
func TestRenewalUnderConcurrentHits(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{Clock: clock.Now, L2: openDisk(t, store.NewMemFS(), 0, clock.Now)})
	key := "GET http://example.org/page"
	stored := okResponse("stored body")
	stored.Header.Set("Etag", `"a"`)
	c.Put(key, stored)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := c.Get(key)
				if got == nil {
					t.Error("the entry was lost")
					return
				}
				if a, b := got.Header.Get("X-Gen"), got.Header.Get("X-Gen-Copy"); a != b {
					t.Errorf("a hit saw X-Gen %q beside X-Gen-Copy %q", a, b)
					return
				}
				got.Header.Set("X-Gen", "written by a hit")
				c.FlushToDisk()
			}
		}()
	}
	for i := range 200 {
		nm := httpmsg.NewResponse(http.StatusNotModified)
		nm.Header.Set("Etag", `"a"`)
		nm.Header.Set("X-Gen", strconv.Itoa(i))
		nm.Header.Set("X-Gen-Copy", strconv.Itoa(i))
		if c.Refresh(key, nm) == nil {
			t.Fatalf("renewal %d failed", i)
		}
	}
	close(stop)
	wg.Wait()
	if got := c.Get(key); got.Header.Get("X-Gen") != "199" {
		t.Errorf("after the last renewal X-Gen reads %q", got.Header.Get("X-Gen"))
	}
}
