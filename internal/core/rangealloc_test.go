package core

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"

	"nakika/internal/apps/largefile"
	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// serveCost reports the allocations and bytes allocated per keep-alive
// round trip through a server started on a pipe listener, client included.
// The client sends reqs in turn, each answered by a body of at most bodyMax
// bytes. It counts runs round trips with the collector held off (a
// collection empties the pools, and their refill would be charged to the
// window), three times, and keeps the smallest count: a one-time growth, a
// buffer's doubling or a map's, or the runtime's own work on another
// goroutine, lands in one pass, not in all.
func serveCost(t *testing.T, serve func(net.Listener), bodyMax, runs int, reqs []string) (allocs, bytes float64) {
	l := newPipeListener()
	go serve(l)
	defer l.Close()
	c := &pipeClient{conn: l.dial(), body: make([]byte, bodyMax)}
	for _, r := range reqs {
		c.reqs = append(c.reqs, []byte(r))
	}
	defer c.conn.Close()
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	for i := 0; i < 2*len(reqs)+20; i++ {
		c.roundTrip(t)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for pass := 0; pass < 3; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.roundTrip(t)
		}
		runtime.ReadMemStats(&after)
		a, b := float64(after.Mallocs-before.Mallocs)/float64(runs), float64(after.TotalAlloc-before.TotalAlloc)/float64(runs)
		if pass == 0 || a < allocs {
			allocs = a
		}
		if pass == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestDaemonShapeRangeAllocCeiling drives warm 1 MiB ranges through
// Node.Serve on the node nakikad builds (ParseDaemon) as benchmark/ starts
// it for large_range: the large-object tier at its defaults on a data
// directory, resource controls on and both walls set (their URLs answer 404),
// the largefile origin's nakika.js with its header-only onResponse, and a
// keep-alive client asking for unaligned ranges of a slab-resident object,
// each spanning five 256 KiB segments. The node's side of a range, the loop's
// count less what the same client allocates against a canned server, stays
// under the ceilings: the segment files are read through the handles their
// log keeps, a view's buffer goes back to the slab's free list, the
// manifest's record hash is kept with its table entry, the 206's range
// fields are written by the codec into the connection's lent 206, and the
// stream is the tier's own, written without a reader, into the Response
// the connection lends. The script's run allocates only the header string
// its setHeader builds: Request and Response are bound without boxing a
// property, the handler's literals and frame cost nothing, and the request
// goes back to the pool once its response is written. Measured
// on go1.24 amd64: 1 allocation and about 179 B per range. Boxing Request's
// and Response's properties at every bind, the literals at every
// evaluation, a frame, arguments and a Run per call, a streamed Response
// per range and a request the pool never got back came to 18 allocations
// and about 912 B; opening each of the five segment files per read, a
// release closure per view, a key per manifest lookup and a header
// rewritten per range field to 79 and about 4.4 KB before that. A warm
// range opens no file here.
func TestDaemonShapeRangeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the node's")
	}
	const (
		size     = 8 << 20
		rangeLen = 1 << 20
		// The ceilings: what is measured, with one allocation of room for
		// the scheduler's noise.
		maxAllocs = 2
		maxBytes  = 256
	)
	srv := httptest.NewServer(nil)
	host := srv.Listener.Addr().String()
	srv.Config.Handler = largefile.NewOrigin(largefile.Config{Host: host, Size: size})
	defer srv.Close()
	var fs *openCountingFS
	n := daemonNode(t, func(cfg *Config) {
		cfg.Upstream = newFetcher(t)
		fs = &openCountingFS{FS: cfg.DataFS}
		cfg.DataFS = fs
	}, "-data-dir", t.TempDir(), "-clientwall", "http://"+host+"/clientwall.js", "-serverwall", "http://"+host+"/serverwall.js")
	if n.ring == nil || !n.cfg.EnableResources || n.cfg.LargeObjectThreshold != 1<<20 || n.cfg.LargeObjectSegment != 256<<10 {
		t.Fatal("nakikad's defaults no longer run the plane, the resource controls and the large-object tier at 1 MiB in 256 KiB segments")
	}
	resp, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://"+host+"/blob"))
	if err != nil || resp.Status != http.StatusOK || resp.Stream == nil {
		t.Fatalf("cold fetch: %v, %v", resp, err)
	}
	if err := resp.Materialize(); err != nil || len(resp.Body) != size {
		t.Fatalf("cold fetch read %d bytes: %v", len(resp.Body), err)
	}
	if !ranHandlers(trace) || resp.Header.Get("X-Largefile-Edge") != "1" {
		t.Fatal("the site's onResponse did not run")
	}
	var reqs []string
	for _, from := range []int{100_003, 2_500_017, 5_000_029, 7_000_001} {
		reqs = append(reqs, "GET /blob HTTP/1.1\r\nHost: "+host+"\r\nUser-Agent: alloc-test\r\nRange: bytes="+
			strconv.Itoa(from)+"-"+strconv.Itoa(from+rangeLen-1)+"\r\n\r\n")
	}
	body := make([]byte, rangeLen)
	canned := []byte("HTTP/1.1 206 Partial Content\r\nContent-Length: " + strconv.Itoa(rangeLen) + "\r\n\r\n" + string(body))
	clientAllocs, clientBytes := serveCost(t, func(l net.Listener) { cannedServe(l, canned) }, rangeLen, 200, reqs)
	opened := fs.opens.Load()
	serveAllocs, serveBytes := serveCost(t, func(l net.Listener) { n.Serve(l) }, rangeLen, 200, reqs)
	if opens := fs.opens.Load() - opened; opens != 0 {
		t.Errorf("warm ranges opened %d files, want none", opens)
	}
	allocs, bytes := serveAllocs-clientAllocs, serveBytes-clientBytes
	t.Logf("per warm 1 MiB range: the node %.1f allocations, %.0f B (Node.Serve loop %.1f, %.0f B; the client alone %.1f, %.0f B)",
		allocs, bytes, serveAllocs, serveBytes, clientAllocs, clientBytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("the node allocates %.1f times and %.0f B per warm range, ceilings %d and %d B", allocs, bytes, maxAllocs, maxBytes)
	}
	st := n.LargeObject()
	if st.SegOriginFetches != 0 || st.SegPeerFetches != 0 {
		t.Errorf("warm ranges fetched segments: %+v", st)
	}
	if full, ranges := largefileCounts(t, host); full != 1 || ranges != 0 {
		t.Errorf("origin served %d full and %d range fetches, want 1 and 0", full, ranges)
	}
}

// openCountingFS counts the files opened for reading.
type openCountingFS struct {
	store.FS
	opens atomic.Int64
}

func (f *openCountingFS) Open(name string) (io.ReadCloser, error) {
	f.opens.Add(1)
	return f.FS.Open(name)
}

// largefileCounts reads the largefile origin's /stats.
func largefileCounts(t *testing.T, host string) (full, ranges int64) {
	t.Helper()
	resp, err := http.Get("http://" + host + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st largefile.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.FullFetches, st.RangeFetches
}
