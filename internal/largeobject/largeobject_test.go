package largeobject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// segmentName matches the files a segment log keeps (seg-NNNNNNNNNN.log); it
// removes every other file in its directory when it opens.
var segmentName = regexp.MustCompile(`^seg-[0-9]{10}\.log$`)

func testBody(n int) []byte {
	b := make([]byte, n)
	r := rand.New(rand.NewSource(42))
	r.Read(b)
	return b
}

func TestManifestCodecRoundTrip(t *testing.T) {
	m := &Manifest{
		Key:      "GET http://example.org/big.bin",
		Status:   200,
		Header:   httpmsg.FromHTTPHeader(http.Header{"Etag": {`"v1"`}, "Content-Type": {"application/octet-stream"}}),
		TotalLen: 2_500_000,
		SegSize:  1 << 20,
		Expires:  time.Unix(0, 1754600000000000000),
	}
	for i := 0; i < m.NumSegments(); i++ {
		m.Segments = append(m.Segments, HashSegment([]byte{byte(i)}))
	}
	if !m.Complete() {
		t.Fatal("manifest should be complete")
	}
	dec, err := decodeManifest(AppendManifest(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Key != m.Key || dec.TotalLen != m.TotalLen || dec.SegSize != m.SegSize ||
		len(dec.Segments) != len(m.Segments) || dec.Segments[2] != m.Segments[2] ||
		dec.Header.Get("Etag") != `"v1"` || !dec.Expires.Equal(m.Expires) {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
}

func TestManifestGeometry(t *testing.T) {
	m := &Manifest{TotalLen: 10, SegSize: 4}
	if n := m.NumSegments(); n != 3 {
		t.Fatalf("NumSegments = %d", n)
	}
	if from, to := m.SegmentSpan(2); from != 8 || to != 10 {
		t.Fatalf("SegmentSpan(2) = [%d,%d)", from, to)
	}
}

func TestManifestDecodeRejectsGarbage(t *testing.T) {
	good := AppendManifest(nil, &Manifest{Key: "k", Status: 200, TotalLen: 8, SegSize: 4,
		Segments: []SegID{HashSegment([]byte("a")), HashSegment([]byte("b"))}})
	for i := range good {
		if _, err := decodeManifest(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// More segment ids than the geometry allows must be rejected.
	bad := &Manifest{Key: "k", Status: 200, TotalLen: 4, SegSize: 4,
		Segments: []SegID{{1}, {2}, {3}}}
	if _, err := decodeManifest(AppendManifest(nil, bad)); err == nil {
		t.Fatal("oversized segment list accepted")
	}
}

func TestSlabPutGetEvict(t *testing.T) {
	fs := store.NewMemFS()
	slab, err := NewSlab(fs, 64, 3*64) // 3 slots
	if err != nil {
		t.Fatal(err)
	}
	segs := make([][]byte, 4)
	ids := make([]SegID, 4)
	for i := range segs {
		segs[i] = bytes.Repeat([]byte{byte('a' + i)}, 64)
		ids[i] = HashSegment(segs[i])
		if err := slab.Put(ids[i], segs[i]); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			// Keep segment 0 hot so eviction hits segment 1.
			slab.Get(ids[0])
		}
	}
	if _, ok := slab.Get(ids[1]); ok {
		t.Fatal("LRU victim still resident")
	}
	for _, i := range []int{0, 2, 3} {
		got, ok := slab.Get(ids[i])
		if !ok || !bytes.Equal(got, segs[i]) {
			t.Fatalf("segment %d lost or corrupt", i)
		}
	}
	st := slab.Stats()
	if st.Evictions != 1 || st.Used != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSlabConcurrentPutGetKeepsSegments: a Get racing a Put must never
// unmap the slot under the writer — a Put that returned success stays
// retrievable. Before slot writes were published after completion, the
// reader could misread the in-flight frame as corruption, free the slot,
// and silently lose the segment (or hand the slot to a second writer).
func TestSlabConcurrentPutGetKeepsSegments(t *testing.T) {
	const nSegs = 8
	fs := store.NewMemFS()
	slab, err := NewSlab(fs, 256, nSegs*256) // exactly one slot per segment
	if err != nil {
		t.Fatal(err)
	}
	segs := make([][]byte, nSegs)
	ids := make([]SegID, nSegs)
	for i := range segs {
		segs[i] = bytes.Repeat([]byte{byte('a' + i)}, 256)
		ids[i] = HashSegment(segs[i])
	}
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := slab.Put(ids[i], segs[i]); err != nil {
				t.Error(err)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Hammer reads of every id while the writers run; misses are
			// fine (not yet published), corruption-induced unmaps are not.
			for j := 0; j < 50; j++ {
				if data, ok := slab.Get(ids[(i+j)%nSegs]); ok && !bytes.Equal(data, segs[(i+j)%nSegs]) {
					t.Errorf("segment %d corrupt", (i+j)%nSegs)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// No evictions were possible (one slot per segment), so every Put that
	// succeeded must still be resident and intact.
	for i := range segs {
		data, ok := slab.Get(ids[i])
		if !ok {
			t.Fatalf("segment %d lost after concurrent put/get", i)
		}
		if !bytes.Equal(data, segs[i]) {
			t.Fatalf("segment %d corrupt after concurrent put/get", i)
		}
	}
}

func TestSlabScanRebuildAndCorruption(t *testing.T) {
	fs := store.NewMemFS()
	slab, err := NewSlab(fs, 64, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("s"), 64)
	id := HashSegment(data)
	if err := slab.Put(id, data); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record on "disk" (a slab this small has one a file).
	other := bytes.Repeat([]byte("t"), 64)
	otherID := HashSegment(other)
	if err := slab.Put(otherID, other); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("seg-")
	if len(names) != 2 {
		t.Fatalf("segment files = %v", names)
	}
	f, _ := fs.Create(names[1])
	f.Write([]byte("torn"))
	f.Close()

	// Reopen: the intact record survives, the torn file is removed.
	slab2, err := NewSlab(fs, 64, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := slab2.Get(id)
	surviving := ok && bytes.Equal(got, data)
	got2, ok2 := slab2.Get(otherID)
	surviving2 := ok2 && bytes.Equal(got2, other)
	if !surviving && !surviving2 {
		t.Fatal("both segments lost after rescan")
	}
	if slab2.Stats().Used != 1 {
		t.Fatalf("used = %d, want 1 (torn record dropped)", slab2.Stats().Used)
	}
}

func TestTierIngestAndStream(t *testing.T) {
	fs := store.NewMemFS()
	tier, err := OpenTier(fs, 1024, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	body := testBody(10_000) // 10 segments, last partial
	m, err := tier.IngestBody("GET http://o/x", 200, http.Header{"Etag": {"e"}}, time.Now(), body)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() || m.NumSegments() != 10 {
		t.Fatalf("manifest: %+v", m)
	}
	if got := tier.Resident(m); got != 10 {
		t.Fatalf("resident = %d", got)
	}
	stream := tier.NewStream(m, nil)
	if stream.TotalLen() != 10_000 {
		t.Fatalf("TotalLen = %d", stream.TotalLen())
	}
	for _, span := range [][2]int64{{0, 10_000}, {0, 1}, {9_999, 10_000}, {1023, 1025}, {3000, 7500}} {
		rc, err := stream.Range(span[0], span[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("range [%d,%d): %v", span[0], span[1], err)
		}
		if !bytes.Equal(got, body[span[0]:span[1]]) {
			t.Fatalf("range [%d,%d) mismatch", span[0], span[1])
		}
	}
	if _, err := stream.Range(0, 10_001); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
}

func TestTierPersistsCompleteManifests(t *testing.T) {
	fs := store.NewMemFS()
	tier, _ := OpenTier(fs, 1024, 64*1024)
	body := testBody(4096)
	if _, err := tier.IngestBody("GET http://o/persist", 200, nil, time.Now(), body); err != nil {
		t.Fatal(err)
	}
	// An incomplete manifest must not persist.
	incomplete := &Manifest{Key: "GET http://o/partial", Status: 200, TotalLen: 4096, SegSize: 1024}
	if err := tier.PutManifest(incomplete); err != nil {
		t.Fatal(err)
	}

	tier2, err := OpenTier(fs, 1024, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tier2.Manifest("GET http://o/persist"); !ok {
		t.Fatal("complete manifest lost across reopen")
	}
	if _, ok := tier2.Manifest("GET http://o/partial"); ok {
		t.Fatal("incomplete manifest resurrected")
	}
	m, _ := tier2.Manifest("GET http://o/persist")
	rc, err := tier2.NewStream(m, nil).Range(100, 2000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, body[100:2000]) {
		t.Fatalf("post-reopen range mismatch: %v", err)
	}
}

// TestTierRefreshManifest: RefreshManifest stores the header and expiry it is
// given without touching segment ids, and the renewal survives a reopen.
func TestTierRefreshManifest(t *testing.T) {
	fs := store.NewMemFS()
	tier, err := OpenTier(fs, 1024, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	body := testBody(5_000)
	hdr := http.Header{"Etag": {`"v1"`}, "Cache-Control": {"max-age=5"}}
	expires := time.Unix(0, 1754600000000000000).UTC()
	m, err := tier.IngestBody("GET http://x/o", 200, hdr, expires, body)
	if err != nil {
		t.Fatal(err)
	}
	renewed := expires.Add(time.Hour)
	got, ok := tier.RefreshManifest("GET http://x/o", httpmsg.FromHTTPHeader(http.Header{"Etag": {`"v1"`}, "Cache-Control": {"max-age=90"}}), renewed)
	if !ok {
		t.Fatal("refresh missed the manifest")
	}
	if !got.Expires.Equal(renewed) || got.Header.Get("Cache-Control") != "max-age=90" ||
		got.Header.Get("Etag") != `"v1"` || len(got.Segments) != len(m.Segments) {
		t.Fatalf("refreshed manifest = %+v", got)
	}
	tier2, err := OpenTier(fs, 1024, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := tier2.Manifest("GET http://x/o")
	if !ok || !m2.Expires.Equal(renewed) || m2.Header.Get("Cache-Control") != "max-age=90" {
		t.Fatalf("renewal not persisted: %+v", m2)
	}
	if _, ok := tier.RefreshManifest("GET http://x/none", httpmsg.Header{}, renewed); ok {
		t.Fatal("refresh of a missing manifest reported ok")
	}
}

// TestTierReopenTable: a reopen restores a manifest when, and only when, its
// key's last word in the log is a complete manifest, and restores that one;
// a second reopen agrees with the first. A manifest that is read while its
// record ages is carried forward through more than a budget of other appends;
// one that is not read is reclaimed with its segment file. Either way lob/
// holds log segments and nothing else.
func TestTierReopenTable(t *testing.T) {
	const (
		segSize  = 64
		capacity = 8 * segSize
		key      = "GET http://o/table"
	)
	expires := time.Unix(0, 1754600000000000000).UTC()
	renewed := expires.Add(time.Hour)
	body := testBody(3*segSize - 10)
	ingest := func(t *testing.T, tier *Tier) {
		t.Helper()
		if _, err := tier.IngestBody(key, 200, http.Header{"Etag": {`"v1"`}, "Cache-Control": {"max-age=5"}}, expires, body); err != nil {
			t.Fatal(err)
		}
	}
	// churn appends more than two budgets of other segments, reading key's
	// manifest after each one when read is set.
	churn := func(t *testing.T, tier *Tier, read bool) {
		t.Helper()
		for i := 0; i < 2*(capacity/segSize+1)+4; i++ {
			seg := bytes.Repeat([]byte{byte(i)}, segSize)
			if err := tier.PutSegment(HashSegment(seg), seg); err != nil {
				t.Fatal(err)
			}
			if read {
				if _, ok := tier.Manifest(key); !ok {
					t.Fatal("the manifest left the table")
				}
			}
		}
		if st := tier.Stats().Slab; st.Evictions == 0 {
			t.Fatalf("the churn reclaimed nothing: %+v", st)
		}
	}
	for _, row := range []struct {
		name   string
		act    func(t *testing.T, tier *Tier)
		wantCC string // the restored manifest's Cache-Control; "" wants none restored
		wantAt time.Time
	}{
		{"complete", ingest, "max-age=5", expires},
		{"refreshed", func(t *testing.T, tier *Tier) {
			ingest(t, tier)
			if _, ok := tier.RefreshManifest(key, httpmsg.FromHTTPHeader(http.Header{"Etag": {`"v1"`}, "Cache-Control": {"max-age=90"}}), renewed); !ok {
				t.Fatal("refresh missed the manifest")
			}
		}, "max-age=90", renewed},
		{"deleted", func(t *testing.T, tier *Tier) {
			ingest(t, tier)
			tier.DeleteManifest(key)
		}, "", time.Time{}},
		{"incomplete", func(t *testing.T, tier *Tier) {
			if err := tier.PutManifest(&Manifest{Key: key, Status: 200, TotalLen: int64(len(body)), SegSize: segSize}); err != nil {
				t.Fatal(err)
			}
		}, "", time.Time{}},
		{"re-ingest in flight", func(t *testing.T, tier *Tier) {
			ingest(t, tier)
			if err := tier.PutManifest(&Manifest{Key: key, Status: 200, TotalLen: int64(len(body)), SegSize: segSize}); err != nil {
				t.Fatal(err)
			}
		}, "", time.Time{}},
		{"served while aging", func(t *testing.T, tier *Tier) {
			ingest(t, tier)
			churn(t, tier, true)
		}, "max-age=5", expires},
		{"not served", func(t *testing.T, tier *Tier) {
			ingest(t, tier)
			churn(t, tier, false)
		}, "", time.Time{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fs := store.NewMemFS()
			tier, err := OpenTier(fs, segSize, capacity)
			if err != nil {
				t.Fatal(err)
			}
			row.act(t, tier)
			tier.Close()
			for reopen := 1; reopen <= 2; reopen++ {
				tier, err := OpenTier(fs, segSize, capacity)
				if err != nil {
					t.Fatal(err)
				}
				m, ok := tier.Manifest(key)
				switch {
				case row.wantCC == "" && ok:
					t.Fatalf("reopen %d: %+v restored, want none", reopen, m)
				case row.wantCC == "":
				case !ok:
					t.Fatalf("reopen %d: no manifest restored", reopen)
				case !m.Complete() || !m.Expires.Equal(row.wantAt) || m.Header.Get("Cache-Control") != row.wantCC || m.Header.Get("Etag") != `"v1"`:
					t.Fatalf("reopen %d: restored %+v, want Expires %v and Cache-Control %q", reopen, m, row.wantAt, row.wantCC)
				}
				if n := tier.Stats().Manifests; n > 1 || (n == 1) != ok {
					t.Fatalf("reopen %d: %d manifests in the table", reopen, n)
				}
				names, _ := fs.List("")
				for _, name := range names {
					if !segmentName.MatchString(name) {
						t.Fatalf("reopen %d: %s beside the log", reopen, name)
					}
				}
				tier.Close()
			}
		})
	}
}

func TestStreamFetchesMissingSegments(t *testing.T) {
	fs := store.NewMemFS()
	tier, _ := OpenTier(fs, 1000, 100*1000)
	body := testBody(5000)

	// Manifest known (say, adopted from a replica index) but no segments
	// resident: every read goes through the fetcher.
	m := &Manifest{Key: "GET http://o/remote", Status: 200, TotalLen: 5000, SegSize: 1000}
	for i := 0; i < 5; i++ {
		from, to := m.SegmentSpan(i)
		m.Segments = append(m.Segments, HashSegment(body[from:to]))
	}
	if err := tier.PutManifest(m); err != nil {
		t.Fatal(err)
	}
	var fetched []int
	fetch := func(mf *Manifest, ord int) ([]byte, error) {
		fetched = append(fetched, ord)
		from, to := mf.SegmentSpan(ord)
		seg := body[from:to]
		tier.PutSegment(HashSegment(seg), seg)
		return seg, nil
	}
	rc, err := tier.NewStream(m, fetch).Range(1500, 3500)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, body[1500:3500]) {
		t.Fatalf("fetched range mismatch: %v", err)
	}
	if fmt.Sprint(fetched) != "[1 2 3]" {
		t.Fatalf("fetched segments %v, want only the covering ones", fetched)
	}

	// Second read: segments now resident, fetcher untouched.
	fetched = nil
	rc, _ = tier.NewStream(m, fetch).Range(1500, 3500)
	got, _ = io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, body[1500:3500]) || len(fetched) != 0 {
		t.Fatalf("warm read refetched %v", fetched)
	}
}

func TestStreamSeesSegmentsIngestedAfterCreation(t *testing.T) {
	fs := store.NewMemFS()
	tier, _ := OpenTier(fs, 100, 100*100)
	body := testBody(300)
	m := &Manifest{Key: "GET http://o/growing", Status: 200, TotalLen: 300, SegSize: 100}
	if err := tier.PutManifest(m); err != nil {
		t.Fatal(err)
	}
	stream := tier.NewStream(m, nil) // snapshot taken before any segment exists
	for i := 0; i < 3; i++ {
		seg := body[i*100 : (i+1)*100]
		id := HashSegment(seg)
		if err := tier.PutSegment(id, seg); err != nil {
			t.Fatal(err)
		}
		if _, err := tier.AppendSegment(m.Key, i, id); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := stream.Range(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("stream did not see grown manifest: %v", err)
	}
	cur, _ := tier.Manifest(m.Key)
	if !cur.Complete() {
		t.Fatal("manifest not complete after appends")
	}
}

// TestConcurrentRangeReaders drives many goroutines over one object with
// mixed resident/missing segments; run under -race in the nightly soak.
func TestConcurrentRangeReaders(t *testing.T) {
	fs := store.NewMemFS()
	tier, _ := OpenTier(fs, 512, 8*512) // small slab: constant eviction churn
	body := testBody(20 * 512)
	m := &Manifest{Key: "GET http://o/churn", Status: 200, TotalLen: int64(len(body)), SegSize: 512}
	for i := 0; i < m.NumSegments(); i++ {
		from, to := m.SegmentSpan(i)
		m.Segments = append(m.Segments, HashSegment(body[from:to]))
	}
	if err := tier.PutManifest(m); err != nil {
		t.Fatal(err)
	}
	fetch := func(mf *Manifest, ord int) ([]byte, error) {
		from, to := mf.SegmentSpan(ord)
		seg := body[from:to]
		tier.PutSegment(mf.Segments[ord], seg)
		return seg, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				from := rnd.Int63n(int64(len(body)))
				to := from + 1 + rnd.Int63n(int64(len(body))-from)
				rc, err := tier.NewStream(m, fetch).Range(from, to)
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, body[from:to]) {
					errs <- fmt.Errorf("range [%d,%d) corrupt", from, to)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
