package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/metrics"
	"nakika/internal/overlay"
	"nakika/internal/store"
)

// segmentName matches the files a segment log keeps (seg-NNNNNNNNNN.log); it
// removes every other file in its directory when it opens.
var segmentName = regexp.MustCompile(`^seg-[0-9]{10}\.log$`)

// lobBody builds the deterministic large-object payload the tests serve.
func lobBody(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + (i/7+i/4093)%23)
	}
	return body
}

// rangeOrigin serves one large object with HTTP Range support, counting full
// and range fetches separately.
type rangeOrigin struct {
	url  string
	body []byte

	mu         sync.Mutex
	fullHits   int
	rangeHits  int
	streamHits int
}

func (o *rangeOrigin) counts() (full, ranged, streamed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fullHits, o.rangeHits, o.streamHits
}

func (o *rangeOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.URL.String() != o.url {
		return httpmsg.NewTextResponse(404, "not found"), nil
	}
	if spec := req.Header.Get("Range"); spec != "" {
		from, to, err := httpmsg.ParseRange(spec, int64(len(o.body)))
		if err != nil {
			return httpmsg.NewRangeNotSatisfiable(int64(len(o.body))), nil
		}
		o.mu.Lock()
		o.rangeHits++
		o.mu.Unlock()
		resp := httpmsg.NewResponse(http.StatusPartialContent)
		resp.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to-1, len(o.body)))
		resp.Body = append([]byte(nil), o.body[from:to]...)
		return resp, nil
	}
	o.mu.Lock()
	o.fullHits++
	o.mu.Unlock()
	resp := httpmsg.NewResponse(200)
	resp.SetMaxAge(600)
	resp.Body = append([]byte(nil), o.body...)
	return resp, nil
}

// streamRangeOrigin additionally implements StreamFetcher, so cold fetches
// take the pull-through ingest path.
type streamRangeOrigin struct{ rangeOrigin }

func (o *streamRangeOrigin) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	if req.URL.String() != o.url || req.Header.Get("Range") != "" {
		resp, err := o.Do(req)
		if err != nil {
			return StreamHead{}, nil, err
		}
		return StreamHead{Status: resp.Status, Header: resp.Header, Length: int64(len(resp.Body))},
			io.NopCloser(bytes.NewReader(resp.Body)), nil
	}
	o.mu.Lock()
	o.streamHits++
	o.mu.Unlock()
	var h httpmsg.Header
	h.Set("Cache-Control", "max-age=600")
	return StreamHead{Status: 200, Header: h, Length: int64(len(o.body))},
		io.NopCloser(bytes.NewReader(o.body)), nil
}

func lobConfig(segSize, threshold int64) func(*Config) {
	return func(cfg *Config) {
		cfg.LargeObjectThreshold = threshold
		cfg.LargeObjectSegment = segSize
		cfg.LargeObjectCapacity = 1 << 20
	}
}

func readStream(t *testing.T, resp *httpmsg.Response, from, to int64) []byte {
	t.Helper()
	rc, err := resp.Stream.Range(from, to)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLargeObjectIngestAndStream: a buffered fetch above the threshold is
// chunked into the tier, and subsequent requests stream it — including lazy
// 206s that read only the requested span — with no further origin traffic.
func TestLargeObjectIngestAndStream(t *testing.T) {
	body := lobBody(40_000)
	origin := &rangeOrigin{url: "http://big.example.org/blob", body: body}
	n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))

	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/blob"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("cold fetch: status %d, %d body bytes", resp.Status, len(resp.Body))
	}

	// Warm: served from the tier as a stream.
	resp, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/blob"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("warm response is not streamed")
	}
	if resp.TotalLen() != int64(len(body)) {
		t.Fatalf("TotalLen = %d, want %d", resp.TotalLen(), len(body))
	}
	if !trace.Streamed || trace.Segments != 10 || trace.SegmentsResident != 10 {
		t.Errorf("trace = streamed %v, %d/%d segments", trace.Streamed, trace.SegmentsResident, trace.Segments)
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("streamed body differs from origin body")
	}

	// Warm range: the 206 narrows lazily and reads only resident segments.
	req := httpmsg.MustRequest("GET", "http://big.example.org/blob")
	req.Header.Set("Range", "bytes=5000-9191")
	resp, _, err = n.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	ranged := httpmsg.ApplyRange(req, resp)
	if ranged.Status != http.StatusPartialContent {
		t.Fatalf("range status = %d", ranged.Status)
	}
	rec := httptest.NewRecorder()
	if err := ranged.WriteToMethod(rec, http.MethodHead); err != nil {
		t.Fatal(err)
	}
	if cr := rec.Header().Get("Content-Range"); cr != "bytes 5000-9191/40000" {
		t.Errorf("Content-Range = %q", cr)
	}
	if err := ranged.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ranged.Body, body[5000:9192]) {
		t.Fatal("range body differs")
	}

	full, rng, _ := origin.counts()
	if full != 1 || rng != 0 {
		t.Errorf("origin hits = %d full, %d range; want 1, 0", full, rng)
	}
	st := n.LargeObject()
	if st.WholeIngests != 1 || st.StreamedServes < 2 || st.SegOriginFetches != 0 {
		t.Errorf("lob stats = %+v", st)
	}
}

// TestLargeObjectStreamingColdFetch: with a stream-capable upstream the cold
// fetch itself is a lazy stream ingested segment by segment, and a second
// request needs no origin traffic.
func TestLargeObjectStreamingColdFetch(t *testing.T) {
	body := lobBody(50_000)
	origin := &streamRangeOrigin{rangeOrigin{url: "http://big.example.org/vid", body: body}}
	n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))

	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/vid"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("cold fetch did not stream")
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("cold streamed body differs")
	}
	resp, _, err = n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/vid"))
	if err != nil {
		t.Fatal(err)
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("warm streamed body differs")
	}
	full, rng, streamed := origin.counts()
	if full != 0 || streamed != 1 || rng != 0 {
		t.Errorf("origin hits = %d full, %d streamed, %d range; want 0, 1, 0", full, streamed, rng)
	}
	if st := n.LargeObject(); st.StreamIngests != 1 {
		t.Errorf("stream ingests = %d, want 1", st.StreamIngests)
	}
}

// TestLargeObjectPeerSegments: node B, which never fetched the object,
// adopts its manifest from A's cache.get reply and pulls segment bodies from
// A the same way — the origin is touched exactly once cluster-wide.
func TestLargeObjectPeerSegments(t *testing.T) {
	body := lobBody(30_000)
	origin := &rangeOrigin{url: "http://big.example.org/iso", body: body}
	ring := overlay.NewRing()
	mutate := func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Ring = ring
	}
	a := newTestNodeUpstream(t, "edge-a", origin, mutate)
	b := newTestNodeUpstream(t, "edge-b", origin, mutate)

	if _, _, err := a.Handle(httpmsg.MustRequest("GET", "http://big.example.org/iso")); err != nil {
		t.Fatal(err)
	}
	resp, _, err := b.Handle(httpmsg.MustRequest("GET", "http://big.example.org/iso"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("adopted response is not streamed")
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("adopted body differs")
	}
	full, rng, _ := origin.counts()
	if full != 1 || rng != 0 {
		t.Errorf("origin hits = %d full, %d range; want 1, 0", full, rng)
	}
	bs := b.LargeObject()
	if bs.Adopted != 1 || bs.SegPeerFetches == 0 {
		t.Errorf("b lob stats = %+v", bs)
	}
	// B now holds a full copy and has announced itself in the overlay's
	// index, beside A.
	holders := a.Overlay().Locate("GET http://big.example.org/iso")
	sort.Strings(holders)
	if want := []string{"edge-a", "edge-b"}; !reflect.DeepEqual(holders, want) {
		t.Errorf("holders located = %v, want %v", holders, want)
	}
}

// TestLargeObjectSurvivesCrash: the slab's log — segments and manifest
// records — is replayed on recovery, so the object serves again without
// origin traffic.
func TestLargeObjectSurvivesCrash(t *testing.T) {
	body := lobBody(30_000)
	origin := &rangeOrigin{url: "http://big.example.org/db", body: body}
	fs := store.NewMemFS()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.DataFS = fs
	})
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/db")); err != nil {
		t.Fatal(err)
	}
	n.Crash()
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/db"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("recovered response is not streamed")
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("recovered body differs")
	}
	if full, rng, _ := origin.counts(); full != 1 || rng != 0 {
		t.Errorf("origin hits = %d full, %d range; want 1, 0", full, rng)
	}
}

// The data directory the previous release left after ingesting lobBody(600)
// from http://big.example.org/parent with 256-byte segments, a 500-byte
// threshold and the cache clock at Unix 1 790 000 000, captured at its
// Shutdown: state/ holds the object's replicated index record under the
// nk:lob site, lob/ its three segments and its manifest record.
const (
	parentStateWAL = "00000140de2d7a0b50066e6b3a6c6f6229006e6b3a6c6f623a47455420687474703a2f2f6269672e6578616d706c652e6f72672f706172656e748c02006e6b7631203120656467652d312050414145685230565549476830644841364c793969615763755a586868625842735a533576636d6376634746795a5735307941454244554e685932686c4c554e76626e52796232774243323168654331685a3255394e6a417773416d4141674d327570693351304b344352586e6e4364614273504b5663496f4835546336766e55554e5a616f35614844492b594f515279582b4a2f4742505869784d7266317a464570506c7a45656d42784b6457545a46332f36436e584772424146396b70754d596d4d3973384f32517442424f6a344468797a59592f415034496a4a5238734267494359763454687264637841515a6c5a47646c4c54454242773d3d"
	parentLobLog   = "00000120fba12b5e36ba98b74342b80915e79c275a06c3ca55c2281f94dceaf9d450d65aa396870c6161616161616162626262626262636363636363636464646464646465656565656565666666666666666767676767676768686868686868696969696969696a6a6a6a6a6a6a6b6b6b6b6b6b6b6c6c6c6c6c6c6c6d6d6d6d6d6d6d6e6e6e6e6e6e6e6f6f6f6f6f6f6f70707070707070717171717171717272727272727273737373737373747474747474747575757575757576767676767676777777777777776161616161616162626262626262636363636363636464646464646465656565656565666666666666666767676767676768686868686868696969696969696a6a6a6a6a6a6a6b6b6b6b6b6b6b6c6c6c6c6c6c6c6d6d6d6d6d6d6d6e6e6e6e000001207e3f8ad28f983904725fe27f1813d78b132b7f5cc51293e5cc47a607129d593645dffe826e6e6e6f6f6f6f6f6f6f70707070707070717171717171717272727272727273737373737373747474747474747575757575757576767676767676777777777777776161616161616162626262626262636363636363636464646464646465656565656565666666666666666767676767676768686868686868696969696969696a6a6a6a6a6a6a6b6b6b6b6b6b6b6c6c6c6c6c6c6c6d6d6d6d6d6d6d6e6e6e6e6e6e6e6f6f6f6f6f6f6f707070707070707171717171717172727272727272737373737373737474747474747475757575757575767676767676767777777777777761616161616161626262626262626363636363636364646464646464650000007835ce4cd79d71ab04017d929b8c62633db3c3b642d0413a3e03872cd863f00fe088c947cb656565656565666666666666666767676767676768686868686868696969696969696a6a6a6a6a6a6a6b6b6b6b6b6b6b6c6c6c6c6c6c6c6d6d6d6d6d6d6d6e6e6e6e6e6e6e6f6f6f6f6f6f6f707070707070707171717171000000f29cbfb1e900000000000000000000000000000000000000000000000000000000000000002147455420687474703a2f2f6269672e6578616d706c652e6f72672f706172656e74012147455420687474703a2f2f6269672e6578616d706c652e6f72672f706172656e74c801010d43616368652d436f6e74726f6c010b6d61782d6167653d363030b00980020336ba98b74342b80915e79c275a06c3ca55c2281f94dceaf9d450d65aa396870c8f983904725fe27f1813d78b132b7f5cc51293e5cc47a607129d593645dffe829d71ab04017d929b8c62633db3c3b642d0413a3e03872cd863f00fe088c947cb01808098bf84e1add731"
)

// TestLargeObjectParentDataDirectory: the previous release's data directory
// opens. Its index record in state/ is replayed and left inert — nothing
// reads the nk:lob site any more — and lob/ is read as it is. Its manifest
// record kept a fetch time where a manifest now keeps its expiry, so the
// object reads as one that expired at the instant it was fetched: it is
// revalidated once, which for this manifest, with no validator, is one
// full origin fetch, and then serves from the tier again.
func TestLargeObjectParentDataDirectory(t *testing.T) {
	const url = "http://big.example.org/parent"
	body := lobBody(600)
	fs := store.NewMemFS()
	for name, literal := range map[string]string{"state/wal-00000001.log": parentStateWAL, "lob/seg-0000000000.log": parentLobLog} {
		raw, err := hex.DecodeString(literal)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(raw)
		f.Close()
	}
	origin := &rangeOrigin{url: url, body: body}
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(256, 500)(cfg)
		cfg.DataFS = fs
		cfg.Clock = func() time.Time { return time.Unix(1_790_000_060, 0) }
	})
	if st := n.StoreStats(); st.Replayed != 1 {
		t.Errorf("replayed %d records from state/, want the index record", st.Replayed)
	}
	if st := n.LargeObject().Tier; st.Manifests != 1 || st.Slab.Used != 3 {
		t.Errorf("opened tier: %+v; want the manifest and its three segments", st)
	}
	t1 := n.lobTier()
	if m, ok := t1.Manifest("GET " + url); !ok || !m.Expires.Equal(time.Unix(1_790_000_000, 0)) || !n.lobStale(m) {
		t.Fatalf("the parent's manifest reads as %+v; want it expired at its fetch time", m)
	}
	for i, wantFull := range []int{1, 1} {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Materialize(); err != nil || !bytes.Equal(resp.Body, body) {
			t.Fatalf("request %d: the object differs after the open: %v", i, err)
		}
		if f, r, _ := origin.counts(); f != wantFull || r != 0 || n.LargeObject().Adopted != 0 {
			t.Errorf("request %d: %d full and %d range origin fetches, %d adoptions; want %d, 0, 0", i, f, r, n.LargeObject().Adopted, wantFull)
		}
	}
}

// gatedOrigin streams its object up to gate bytes and then blocks until
// release is closed. atGate is closed when the body first blocks, bodyClosed
// when the reader of the first body lets go of it.
type gatedOrigin struct {
	streamRangeOrigin
	gate                        int
	atGate, release, bodyClosed chan struct{}
	gateOnce, closeOnce         sync.Once
}

func newGatedOrigin(url string, body []byte, gate int) *gatedOrigin {
	o := &gatedOrigin{gate: gate, atGate: make(chan struct{}), release: make(chan struct{}), bodyClosed: make(chan struct{})}
	o.url, o.body = url, body
	return o
}

func (o *gatedOrigin) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	head, body, err := o.streamRangeOrigin.DoStream(req)
	if err == nil && req.URL.String() == o.url && req.Header.Get("Range") == "" {
		body = &gatedBody{o: o}
	}
	return head, body, err
}

type gatedBody struct {
	o   *gatedOrigin
	off int
}

func (b *gatedBody) Read(p []byte) (int, error) {
	limit := len(b.o.body)
	if b.off < b.o.gate {
		limit = b.o.gate
	} else {
		b.o.gateOnce.Do(func() { close(b.o.atGate) })
		<-b.o.release
	}
	n := copy(p, b.o.body[b.off:limit])
	b.off += n
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (b *gatedBody) Close() error {
	b.o.closeOnce.Do(func() { close(b.o.bodyClosed) })
	return nil
}

// lobFiles is every file under the node's lob/ directory with its length.
func lobFiles(t *testing.T, fs store.FS) map[string]int {
	t.Helper()
	names, err := fs.List("lob/")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]int)
	for _, name := range names {
		data, err := store.ReadAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = len(data)
	}
	return files
}

// TestLargeObjectIngestOutlivingCrashStoresNothing: a streamed ingest whose
// origin is still sending when the node crashes holds the dead tier. Crash
// closed that tier's log, so once the origin sends the rest the ingest fails
// at its next segment instead of writing into the directory the recovered
// tier has taken over: the files under lob/ are exactly what they were. The
// recovered node then fetches and serves the object as if for the first time.
func TestLargeObjectIngestOutlivingCrashStoresNothing(t *testing.T) {
	const url = "http://big.example.org/slow"
	body := lobBody(40_000)
	origin := newGatedOrigin(url, body, 3*4096+100)
	fs := store.NewMemFS()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.DataFS = fs
	})
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	<-origin.atGate // three segments are in the tier, the fourth is on its way
	if got := readStream(t, resp, 100, 3*4096); !bytes.Equal(got, body[100:3*4096]) {
		t.Fatal("the ingested prefix reads back wrong")
	}
	atCrash := lobFiles(t, fs)
	if len(atCrash) != 1 {
		t.Fatalf("files under lob/ at the crash = %v, want the one log segment", atCrash)
	}

	n.Crash()
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	close(origin.release)
	<-origin.bodyClosed // the ingest has given up, or finished
	if after := lobFiles(t, fs); !reflect.DeepEqual(after, atCrash) {
		t.Fatalf("the ingest that outlived the crash changed lob/:\n at the crash %v\n afterwards   %v", atCrash, after)
	}
	if st := n.LargeObject().Tier; st.Manifests != 0 || st.Slab.Used != 3 {
		t.Errorf("recovered tier: %+v; want the three segments and no manifest", st)
	}

	for i := 0; i < 2; i++ {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
		if err != nil {
			t.Fatal(err)
		}
		if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
			t.Fatalf("read %d after the recovery differs from the object", i)
		}
	}
	if _, _, streamed := origin.counts(); streamed != 2 {
		t.Errorf("%d streamed origin fetches, want 2: the one the crash cut and one after it", streamed)
	}
	if err := n.Shutdown(); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if _, ok := n.lobTier().GetSegment(largeobject.HashSegment(body[:4096])); !ok {
		t.Error("a closed tier does not read")
	}
	if err := n.lobTier().PutSegment(largeobject.HashSegment([]byte("late")), []byte("late")); err == nil {
		t.Error("a tier closed by Shutdown still stores")
	}
}

// firstGated gates only the first full streamed fetch of its object; every
// later one streams the whole body at once.
type firstGated struct {
	*gatedOrigin
	mu    sync.Mutex
	calls int
}

func (o *firstGated) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	o.mu.Lock()
	if req.URL.String() == o.url && req.Header.Get("Range") == "" {
		o.calls++
	}
	first := o.calls == 1
	o.mu.Unlock()
	if first {
		return o.gatedOrigin.DoStream(req)
	}
	return o.streamRangeOrigin.DoStream(req)
}

// TestLargeObjectDeadIngestLeavesRecoveredManifest: an ingest that outlives
// a crash fails at its next segment on the dead tier and drops its manifest
// there. The dead tier's log was closed by Crash, so that drop appends no
// tombstone — lob/ is byte for byte what the recovered tier left, manifest
// record included, after it wrote its own copy of the same object. The proof
// is one more crash: the object then serves from lob/ with no further origin
// fetch.
func TestLargeObjectDeadIngestLeavesRecoveredManifest(t *testing.T) {
	const url = "http://big.example.org/twice"
	body := lobBody(40_000)
	origin := &firstGated{gatedOrigin: newGatedOrigin(url, body, 3*4096+100)}
	fs := store.NewMemFS()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.DataFS = fs
	})
	fetch := func(what string) {
		t.Helper()
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
		if err != nil {
			t.Fatal(err)
		}
		if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
			t.Fatalf("%s: body differs from the object", what)
		}
	}
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", url)); err != nil {
		t.Fatal(err)
	}
	<-origin.atGate // three segments in, the fourth on its way

	n.Crash()
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	fetch("the recovered node's own ingest")
	before := lobFiles(t, fs)
	close(origin.release)
	<-origin.bodyClosed // the dead ingest has given up
	if after := lobFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("the dead ingest changed lob/:\n before %v\n after  %v", before, after)
	}

	full, ranged, streamed := origin.counts()
	n.Crash()
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := n.LargeObject().Tier; st.Manifests != 1 {
		t.Fatalf("the second recovery restored %d manifests, want 1", st.Manifests)
	}
	fetch("after the second recovery")
	if f, r, s := origin.counts(); f != full || r != ranged || s != streamed {
		t.Errorf("origin fetches after the second recovery = %d full, %d range, %d streamed; want %d, %d, %d",
			f, r, s, full, ranged, streamed)
	}
}

// shortOrigin declares its whole object on every streamed fetch, but
// sends the first only up to its gate: it holds there until release is
// closed and then ends the body early.
type shortOrigin struct{ firstGated }

func (o *shortOrigin) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	head, body, err := o.firstGated.DoStream(req)
	if gated, ok := body.(*gatedBody); ok {
		body = shortBody{gated}
	}
	return head, body, err
}

type shortBody struct{ *gatedBody }

func (b shortBody) Read(p []byte) (int, error) {
	if b.off < b.o.gate {
		return b.gatedBody.Read(p)
	}
	b.o.gateOnce.Do(func() { close(b.o.atGate) })
	<-b.o.release
	return 0, io.EOF
}

// TestLargeObjectShortBodyFailsParkedReader: an origin that declares 40 000
// bytes and sends 3 × 4096 + 100 before its EOF fails the ingest. A reader
// parked on a later segment gets the error instead of hanging, no manifest
// is left, and the next GET streams the object again with one more origin
// fetch.
func TestLargeObjectShortBodyFailsParkedReader(t *testing.T) {
	const url = "http://big.example.org/short"
	body := lobBody(40_000)
	origin := &shortOrigin{firstGated{gatedOrigin: newGatedOrigin(url, body, 3*4096+100)}}
	n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	<-origin.atGate // three segments in, the fourth short
	read := make(chan error, 1)
	go func() {
		rc, err := resp.Stream.Range(5*4096, 6*4096)
		if err == nil {
			_, err = io.ReadAll(rc)
			rc.Close()
		}
		read <- err
	}()
	for n.LargeObject().Tier.IngestWaits == 0 { // the reader is parked on the sixth segment
		select {
		case err := <-read:
			t.Fatalf("the reader ended without waiting on the ingest: %v", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	close(origin.release)
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("a reader parked on a segment the short body never sent read no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a reader parked on a segment the short body never sent still waits")
	}
	<-origin.bodyClosed
	if st := n.LargeObject().Tier; st.Manifests != 0 {
		t.Fatalf("the failed ingest left %d manifests", st.Manifests)
	}

	_, _, streamed := origin.counts()
	resp, _, err = n.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stream == nil {
		t.Fatal("the GET after the failed ingest did not stream")
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("the object streamed after the failed ingest differs")
	}
	if f, r, s := origin.counts(); f != 0 || r != 0 || s != streamed+1 {
		t.Errorf("origin fetches after the failed ingest = %d full, %d range, %d streamed; want 0, 0, %d", f, r, s, streamed+1)
	}
}

// TestLargeObjectEvictedSegmentsRefetchByRange: a slab too small for the
// object evicts segments; readers transparently refill them with origin
// Range fetches — never a second full-body fetch.
func TestLargeObjectEvictedSegmentsRefetchByRange(t *testing.T) {
	body := lobBody(60_000)
	origin := &rangeOrigin{url: "http://big.example.org/huge", body: body}
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		cfg.LargeObjectThreshold = 10_000
		cfg.LargeObjectSegment = 4096
		cfg.LargeObjectCapacity = 5 * 4096 // 5 slots for a 15-segment object
	})
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/huge")); err != nil {
		t.Fatal(err)
	}
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/huge"))
	if err != nil {
		t.Fatal(err)
	}
	if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
		t.Fatal("body differs after eviction refill")
	}
	full, rng, _ := origin.counts()
	if full != 1 {
		t.Errorf("full origin hits = %d, want 1", full)
	}
	if rng == 0 {
		t.Error("expected range refetches for evicted segments")
	}
}

// TestLargeObjectConcurrentRangeReaders hammers one object with concurrent
// random range reads through the node while eviction churns the slab — the
// nightly -race soak runs this with the race detector.
func TestLargeObjectConcurrentRangeReaders(t *testing.T) {
	body := lobBody(48_000)
	origin := &rangeOrigin{url: "http://big.example.org/soak", body: body}
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		cfg.LargeObjectThreshold = 10_000
		cfg.LargeObjectSegment = 4096
		cfg.LargeObjectCapacity = 6 * 4096
	})
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/soak")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 15; i++ {
				from := rng.Int63n(int64(len(body)) - 1)
				to := from + 1 + rng.Int63n(int64(len(body))-from-1)
				req := httpmsg.MustRequest("GET", "http://big.example.org/soak")
				req.Header.Set("Range", "bytes="+strconv.FormatInt(from, 10)+"-"+strconv.FormatInt(to-1, 10))
				resp, _, err := n.Handle(req)
				if err != nil {
					errs <- err
					return
				}
				ranged := httpmsg.ApplyRange(req, resp)
				if err := ranged.Materialize(); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(ranged.Body, body[from:to]) {
					errs <- fmt.Errorf("range [%d,%d) differs", from, to)
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if full, _, _ := origin.counts(); full != 1 {
		t.Errorf("full origin hits = %d, want 1", full)
	}
}

// uncacheableOrigin serves one large body marked no-store, buffered or
// streamed, counting each fetch.
type uncacheableOrigin struct {
	url  string
	body []byte

	mu   sync.Mutex
	hits int
}

func (o *uncacheableOrigin) respond() *httpmsg.Response {
	o.mu.Lock()
	o.hits++
	o.mu.Unlock()
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Cache-Control", "no-store")
	resp.Body = append([]byte(nil), o.body...)
	return resp
}

func (o *uncacheableOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.URL.String() != o.url {
		return httpmsg.NewTextResponse(404, "not found"), nil
	}
	return o.respond(), nil
}

func (o *uncacheableOrigin) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits
}

// streamUncacheableOrigin adds the streaming interface, so the no-store gate
// on the pull-through path is exercised too.
type streamUncacheableOrigin struct{ uncacheableOrigin }

func (o *streamUncacheableOrigin) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	resp, err := o.Do(req)
	if err != nil {
		return StreamHead{}, nil, err
	}
	return StreamHead{Status: resp.Status, Header: resp.Header, Length: int64(len(resp.Body))},
		io.NopCloser(bytes.NewReader(resp.Body)), nil
}

// TestLargeObjectNeverIngestsUncacheable: a no-store 200 above the threshold
// must not enter the shared tier — not via the buffered after-the-fact chunk,
// and not via the streaming pull-through — so every request goes back to the
// origin.
func TestLargeObjectNeverIngestsUncacheable(t *testing.T) {
	body := lobBody(40_000)
	for name, origin := range map[string]Fetcher{
		"buffered": &uncacheableOrigin{url: "http://p.example.org/me", body: body},
		"streamed": &streamUncacheableOrigin{uncacheableOrigin{url: "http://p.example.org/me", body: body}},
	} {
		t.Run(name, func(t *testing.T) {
			n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))
			for i := 0; i < 2; i++ {
				resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://p.example.org/me"))
				if err != nil {
					t.Fatal(err)
				}
				if err := resp.Materialize(); err != nil {
					t.Fatal(err)
				}
				if resp.Status != 200 || !bytes.Equal(resp.Body, body) {
					t.Fatalf("request %d: status %d, %d body bytes", i, resp.Status, len(resp.Body))
				}
			}
			if st := n.LargeObject(); st.Tier.Manifests != 0 || st.WholeIngests != 0 || st.StreamIngests != 0 {
				t.Errorf("no-store body entered the tier: %+v", st)
			}
			var hits int
			switch o := origin.(type) {
			case *uncacheableOrigin:
				hits = o.count()
			case *streamUncacheableOrigin:
				hits = o.count()
			}
			if hits != 2 {
				t.Errorf("origin hits = %d, want 2 (nothing may be cached)", hits)
			}
		})
	}
}

// revalOrigin versions its body: conditional requests matching the current
// ETag get a 304, everything else the current full body.
type revalOrigin struct {
	url string

	mu           sync.Mutex
	body         []byte
	etag         string
	maxAge       int
	fullHits     int
	notModHits   int
	conditionals int
}

func (o *revalOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.URL.String() != o.url {
		return httpmsg.NewTextResponse(404, "not found"), nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		o.conditionals++
		if inm == o.etag {
			o.notModHits++
			resp := httpmsg.NewResponse(http.StatusNotModified)
			resp.Header.Set("Etag", o.etag)
			resp.Header.Set("Cache-Control", fmt.Sprintf("max-age=%d", o.maxAge))
			return resp, nil
		}
	}
	o.fullHits++
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Etag", o.etag)
	resp.Header.Set("Cache-Control", fmt.Sprintf("max-age=%d", o.maxAge))
	resp.Body = append([]byte(nil), o.body...)
	return resp, nil
}

// TestLargeObjectStaleRevalidates: an expired manifest is never served as-is.
// While the validators still match, one conditional request renews it (a 304
// keeps the segment bodies); once the content changes, revalidation
// re-ingests the new body in place.
func TestLargeObjectStaleRevalidates(t *testing.T) {
	bodyV1 := lobBody(40_000)
	origin := &revalOrigin{url: "http://big.example.org/rss", body: bodyV1, etag: `"v1"`, maxAge: 100}
	now := time.Unix(1_800_000_000, 0)
	var mu sync.Mutex
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
	})
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	get := func(wantBody []byte) {
		t.Helper()
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/rss"))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Materialize(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Body, wantBody) {
			t.Fatalf("body differs (%d bytes, want %d)", len(resp.Body), len(wantBody))
		}
	}

	get(bodyV1) // cold: ingest
	get(bodyV1) // fresh: streamed, no origin traffic
	if origin.fullHits != 1 || origin.conditionals != 0 {
		t.Fatalf("fresh phase: %d full, %d conditional", origin.fullHits, origin.conditionals)
	}

	// Expire; unchanged content: exactly one conditional request renews the
	// manifest, and the renewed copy serves without further origin traffic.
	advance(101 * time.Second)
	get(bodyV1)
	if origin.fullHits != 1 || origin.notModHits != 1 {
		t.Fatalf("revalidate phase: %d full, %d 304s; want 1, 1", origin.fullHits, origin.notModHits)
	}
	get(bodyV1)
	if origin.notModHits != 1 {
		t.Fatalf("renewed manifest did not serve: %d 304s", origin.notModHits)
	}

	// Expire again; content changed: revalidation re-ingests the new body.
	bodyV2 := lobBody(52_000)
	origin.mu.Lock()
	origin.body, origin.etag = bodyV2, `"v2"`
	origin.mu.Unlock()
	advance(101 * time.Second)
	get(bodyV2)
	if origin.fullHits != 2 {
		t.Fatalf("changed content: %d full fetches, want 2", origin.fullHits)
	}
	get(bodyV2) // the re-ingested copy is fresh again
	if origin.fullHits != 2 || origin.conditionals != 2 {
		t.Fatalf("after re-ingest: %d full, %d conditional", origin.fullHits, origin.conditionals)
	}
	if st := n.LargeObject(); st.Tier.Manifests != 1 {
		t.Errorf("manifests = %d, want 1", st.Tier.Manifests)
	}
}

// TestLargeObjectStaleWithoutValidatorsRefetches: with no ETag/Last-Modified
// an expired manifest cannot revalidate — it is dropped and the object
// refetched in full, exactly like an expired whole-body cache entry.
func TestLargeObjectStaleWithoutValidatorsRefetches(t *testing.T) {
	body := lobBody(30_000)
	origin := &rangeOrigin{url: "http://big.example.org/nv", body: body}
	now := time.Unix(1_800_000_000, 0)
	var mu sync.Mutex
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
	})
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/nv")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(601 * time.Second) // past the origin's max-age=600
	mu.Unlock()
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/nv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, body) {
		t.Fatal("refetched body differs")
	}
	if full, _, _ := origin.counts(); full != 2 {
		t.Errorf("full origin fetches = %d, want 2 (stale copy must not serve)", full)
	}
}

// failStreamOrigin errors on every DoStream but serves fine over Do.
type failStreamOrigin struct{ rangeOrigin }

func (o *failStreamOrigin) DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error) {
	return StreamHead{}, nil, fmt.Errorf("stream path down")
}

// TestStreamFetchErrorFallsBackToBuffered: a failing streaming path must not
// turn a cold miss into a hard failure — the miss falls back to the buffered
// fetch, and the object is still chunked into the tier after the fact.
func TestStreamFetchErrorFallsBackToBuffered(t *testing.T) {
	body := lobBody(40_000)
	origin := &failStreamOrigin{rangeOrigin{url: "http://big.example.org/fb", body: body}}
	n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/fb"))
	if err != nil {
		t.Fatalf("cold miss failed instead of falling back: %v", err)
	}
	if err := resp.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, body) {
		t.Fatal("fallback body differs")
	}
	if full, _, _ := origin.counts(); full != 1 {
		t.Errorf("full origin fetches = %d, want 1", full)
	}
	if st := n.LargeObject(); st.WholeIngests != 1 {
		t.Errorf("whole ingests = %d, want 1 (buffered fallback still chunks)", st.WholeIngests)
	}
}

// TestLargeObjectTierOnMetrics: the tier's counters reach /metrics as
// scrape-time series — after one ingest and one warm range the slab hit
// counter in the exposition is the one SlabStats reports — and the
// exposition still parses.
func TestLargeObjectTierOnMetrics(t *testing.T) {
	body := lobBody(40_000)
	origin := &rangeOrigin{url: "http://big.example.org/blob", body: body}
	n := newTestNodeUpstream(t, "edge-1", origin, lobConfig(4096, 10_000))
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://big.example.org/blob")); err != nil {
		t.Fatal(err)
	}
	req := httpmsg.MustRequest("GET", "http://big.example.org/blob")
	req.Header.Set("Range", "bytes=5000-9191")
	resp, _, err := n.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := readStream(t, resp, 5000, 9192); !bytes.Equal(got, body[5000:9192]) {
		t.Fatal("warm range differs")
	}

	st := n.LargeObject()
	if st.Tier.Slab.Hits == 0 {
		t.Fatal("the warm range did not read the slab")
	}
	var sb strings.Builder
	if err := n.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ParseExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, line := range []string{
		fmt.Sprintf("nakika_lob_slab_hits_total %d\n", st.Tier.Slab.Hits),
		fmt.Sprintf("nakika_lob_slab_misses_total %d\n", st.Tier.Slab.Misses),
		fmt.Sprintf("nakika_lob_slab_puts_total %d\n", st.Tier.Slab.Puts),
		"nakika_lob_slab_evictions_total 0\n",
		fmt.Sprintf(`nakika_lob_slab_slots{state="used"} %d`+"\n", st.Tier.Slab.Used),
		fmt.Sprintf(`nakika_lob_slab_slots{state="total"} %d`+"\n", st.Tier.Slab.Slots),
		fmt.Sprintf("nakika_lob_streamed_total %d\n", st.StreamedServes),
		`nakika_lob_ingests_total{mode="whole"} 1` + "\n",
		`nakika_lob_ingests_total{mode="stream"} 0` + "\n",
		"nakika_lob_adopted_total 0\n",
		`nakika_lob_segment_fetches_total{source="peer"} 0` + "\n",
		`nakika_lob_segment_fetches_total{source="origin"} 0` + "\n",
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// TestLargeObjectLogOnMetrics: the slab's log is as visible as the disk
// tier's — segment files, their bytes and the live share of them are the
// numbers SlabStats reports and what lies under lob/ — and revalidations and
// reads that waited on an ingest are counted.
func TestLargeObjectLogOnMetrics(t *testing.T) {
	exposition := func(n *Node) string {
		t.Helper()
		var sb strings.Builder
		if err := n.Metrics().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := metrics.ParseExposition(sb.String()); err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return sb.String()
	}
	want := func(text string, lines ...string) {
		t.Helper()
		for _, line := range lines {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("exposition lacks %q", line)
			}
		}
	}

	// A reader that gets ahead of a streamed ingest waits on it, segment by
	// segment, instead of fetching.
	const url = "http://big.example.org/gated"
	body := lobBody(40_000)
	origin := newGatedOrigin(url, body, 2*4096)
	fs := store.NewMemFS()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.DataFS = fs
	})
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	<-origin.atGate
	read := make(chan []byte)
	go func() {
		rc, err := resp.Stream.Range(0, resp.TotalLen())
		if err != nil {
			t.Error(err)
		}
		got, err := io.ReadAll(rc)
		if err != nil {
			t.Error(err)
		}
		read <- got
	}()
	for n.LargeObject().Tier.IngestWaits == 0 { // the reader has reached the third segment
		time.Sleep(100 * time.Microsecond)
	}
	close(origin.release)
	if got := <-read; !bytes.Equal(got, body) {
		t.Fatal("the body read across the ingest differs")
	}
	<-origin.bodyClosed
	st := n.LargeObject().Tier.Slab
	files, onDisk := 0, 0
	for name, size := range lobFiles(t, fs) {
		if segmentName.MatchString(strings.TrimPrefix(name, "lob/")) {
			files++
			onDisk += size
		}
	}
	if st.Segments != files || st.Bytes != int64(onDisk) || st.LiveBytes != st.Bytes || st.Used != 10 {
		t.Errorf("slab stats %+v; under lob/ %d bytes in %d segment files", st, onDisk, files)
	}
	want(exposition(n),
		fmt.Sprintf("nakika_lob_slab_segments %d", files),
		fmt.Sprintf("nakika_lob_slab_bytes %d", onDisk),
		fmt.Sprintf("nakika_lob_slab_live_bytes %d", onDisk),
		fmt.Sprintf("nakika_lob_ingest_waits_total %d", n.LargeObject().Tier.IngestWaits),
		`nakika_cache_revalidations_total{result="not_modified",tier="lob"} 0`)

	// Revalidations by how they ended: a 304, then a new body twice. A
	// manifest with no validator is dropped at the lookup, not revalidated.
	now := time.Unix(1_800_000_000, 0)
	var mu sync.Mutex
	advance := func() {
		mu.Lock()
		now = now.Add(101 * time.Second)
		mu.Unlock()
	}
	reval := &revalOrigin{url: "http://big.example.org/rss", body: lobBody(40_000), etag: `"v1"`, maxAge: 100}
	n = newTestNodeUpstream(t, "edge-2", reval, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Clock = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}
	})
	get := func() {
		t.Helper()
		if _, _, err := n.Handle(httpmsg.MustRequest("GET", reval.url)); err != nil {
			t.Fatal(err)
		}
	}
	get()
	advance()
	get() // 304
	reval.mu.Lock()
	reval.body, reval.etag = lobBody(52_000), `"v2"`
	reval.mu.Unlock()
	advance()
	get() // 200, a new body
	reval.mu.Lock()
	reval.etag = "" // the next manifest has no validator to revalidate with
	reval.mu.Unlock()
	advance()
	get() // 200 again, by the validators of "v2"
	advance()
	get() // nothing to ask with: dropped at the lookup and refetched, no revalidation
	want(exposition(n),
		`nakika_cache_revalidations_total{result="not_modified",tier="lob"} 1`,
		`nakika_cache_revalidations_total{result="replaced",tier="lob"} 2`,
		`nakika_cache_revalidations_total{result="failed",tier="lob"} 0`,
		"nakika_lob_ingest_waits_total 0")
}

// newTestNodeUpstream is newTestNode for upstreams that are not memOrigins.
func newTestNodeUpstream(t *testing.T, name string, upstream Fetcher, mutate func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Name:          name,
		Region:        "us-east",
		Upstream:      upstream,
		LocalNetworks: []string{"10.0.0.0/8"},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSmallStreamedReplyOwnsItsHeader: a reply the tier does not take (every
// SIMM XML fetch) comes through the streaming path byte for byte, with a
// declared length or chunked, and its header is its own: the next reply on
// the same keep-alive connection neither changes it nor sees a write to it.
func TestSmallStreamedReplyOwnsItsHeader(t *testing.T) {
	bodies := map[string]string{
		"/declared": strings.Repeat("<p>declared length</p>\n", 40),
		"/chunked":  strings.Repeat("<p>chunked</p>\n", 30),
		"/empty":    "",
	}
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		body := bodies[req.URL.Path]
		head := "HTTP/1.1 200 OK\r\nCache-Control: max-age=60\r\nX-Path: " + req.URL.Path + "\r\n"
		if req.URL.Path == "/chunked" {
			return head + fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body), false
		}
		return head + fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(body), body), false
	})
	f := newFetcher(t)
	n := newTestNodeUpstream(t, "small-reply", f, lobConfig(4<<10, 64<<10))
	paths := []string{"/declared", "/chunked", "/empty"}
	var replies []*httpmsg.Response
	for _, path := range paths {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", o.url(path)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Stream != nil || string(resp.Body) != bodies[path] {
			t.Fatalf("GET %s: %d, streamed %v, body %q", path, resp.Status, resp.Stream != nil, resp.Body)
		}
		replies = append(replies, resp)
	}
	for i, resp := range replies {
		if got := resp.Header.Get("X-Path"); got != paths[i] {
			t.Errorf("reply to %s reads X-Path %q after later replies", paths[i], got)
		}
		if i > 0 {
			replies[i-1].Header.Set("X-Path", "written")
			if got := resp.Header.Get("X-Path"); got != paths[i] {
				t.Errorf("a write to the reply to %s reached the reply to %s: %q", paths[i-1], paths[i], got)
			}
		}
	}
	if d := f.dials.Load(); d != 1 {
		t.Errorf("%d connections dialed, want 1: each body is read to its end and the connection reused", d)
	}
}
