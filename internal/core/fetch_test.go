package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/cache"
	"nakika/internal/httpmsg"
	"nakika/internal/metrics"
	"nakika/internal/overlay"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// testClock is an injectable cache clock. It starts at wall time because
// httpmsg.NewResponse stamps Fetched with time.Now(); only the advances are
// simulated.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Now()} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestCoalescingKeepsSelectingHeadersApart: a flight is shared only by
// requests the origin would answer alike. A plain GET that arrives while a
// Range (or conditional) request for the same URL is in flight must not be
// handed that leader's 206 (or 304).
func TestCoalescingKeepsSelectingHeadersApart(t *testing.T) {
	const url = "http://site.example.org/page"
	body := bytes.Repeat([]byte("0123456789"), 100)
	for _, tc := range []struct {
		name, header, value string
		leaderStatus        int
	}{
		{"range leader", "Range", "bytes=0-9", http.StatusPartialContent},
		{"conditional leader", "If-None-Match", `"v1"`, http.StatusNotModified},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan struct{}, 2)
			release := make(chan struct{})
			origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
				entered <- struct{}{}
				<-release
				switch {
				case req.Header.Get("Range") != "":
					resp := httpmsg.NewResponse(http.StatusPartialContent)
					resp.Header.Set("Content-Range", "bytes 0-9/1000")
					resp.Body = body[:10]
					return resp, nil
				case req.Header.Get("If-None-Match") == `"v1"`:
					return httpmsg.NewResponse(http.StatusNotModified), nil
				}
				resp := httpmsg.NewResponse(200)
				resp.Header.Set("Etag", `"v1"`)
				resp.Body = append([]byte(nil), body...)
				return resp, nil
			})
			n := newTestNodeUpstream(t, "edge-1", origin, nil)

			type result struct {
				resp *httpmsg.Response
				err  error
			}
			fetch := func(req *httpmsg.Request, out chan<- result) {
				resp, err := n.Fetch(req)
				out <- result{resp, err}
			}
			leaderReq := httpmsg.MustRequest("GET", url)
			leaderReq.Header.Set(tc.header, tc.value)
			leaderOut, followerOut := make(chan result, 1), make(chan result, 1)
			go fetch(leaderReq, leaderOut)
			<-entered // the leader is at the origin, its flight is open
			go fetch(httpmsg.MustRequest("GET", url), followerOut)
			select {
			case <-entered: // the follower went to the origin on its own
			case <-time.After(2 * time.Second):
				// It joined the leader's flight; the assertions below say so.
			}
			close(release)

			if r := <-leaderOut; r.err != nil || r.resp.Status != tc.leaderStatus {
				t.Errorf("leader: %+v, %v; want status %d", r.resp, r.err, tc.leaderStatus)
			}
			r := <-followerOut
			if r.err != nil || r.resp.Status != 200 || !bytes.Equal(r.resp.Body, body) {
				t.Fatalf("plain follower: status %d, %d body bytes, err %v; want 200 with the full body",
					r.resp.Status, len(r.resp.Body), r.err)
			}
			if c := n.Stats().CoalescedFetches; c != 0 {
				t.Errorf("coalesced = %d, want 0", c)
			}
		})
	}
}

// TestPeerCopyExpiresWithTheHolders: a copy taken from a peer's cache keeps
// the holder's deadline instead of starting a new lifetime at the moment it
// was copied.
func TestPeerCopyExpiresWithTheHolders(t *testing.T) {
	const url = "http://heavy.example.org/clip"
	origin := newMemOrigin()
	origin.addText(url, "clip-bytes", 60)
	clock := newTestClock()
	ring := overlay.NewRing()
	mutate := func(cfg *Config) {
		cfg.Ring = ring
		cfg.Cache.Clock = clock.Now
	}
	a := newTestNode(t, "edge-a", origin, mutate)
	b := newTestNode(t, "edge-b", origin, mutate)
	req := func() *httpmsg.Request { return httpmsg.MustRequest("GET", url) }
	key := req().CacheKey()

	if _, err := a.Fetch(req()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(59 * time.Second)
	resp, err := b.Fetch(req())
	if err != nil || resp.Via != "edge-a" || b.Stats().PeerHits != 1 {
		t.Fatalf("b did not fetch from its peer: %+v, %v", resp, err)
	}
	_, holderExpiry := a.Cache().GetUntil(key)
	_, copyExpiry := b.Cache().GetUntil(key)
	if !copyExpiry.Equal(holderExpiry) {
		t.Errorf("copy expires %v, holder's %v", copyExpiry, holderExpiry)
	}
	clock.Advance(2 * time.Second) // 61 s after the origin fetch
	if a.Cache().Get(key) != nil || b.Cache().Get(key) != nil {
		t.Error("a max-age=60 object is still served 61 s after it left the origin")
	}
}

// TestCacheGetReplyGolden pins the one reply that changed on the wire: it
// gained the holder's expiry as a second argument. A reply without it, as
// the previous build sends, is still stored, with a lifetime starting now.
func TestCacheGetReplyGolden(t *testing.T) {
	const (
		key        = "GET http://example.org/a"
		goldenBody = "00c801020d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650109746578742f68746d6c0f3c68746d6c3e68693c2f68746d6c3e000106656467652d31018a80d0e2c6bfce972f"
	)
	now := time.Unix(1780272000, 0)
	ring := overlay.NewRing()
	mutate := func(cfg *Config) {
		cfg.Ring = ring
		cfg.Cache.Clock = func() time.Time { return now }
	}
	holder := newTestNode(t, "edge-a", newMemOrigin(), mutate)
	holder.Cache().Put(key, &httpmsg.Response{
		Status: 200,
		Header: http.Header{"Content-Type": {"text/html"}, "Cache-Control": {"max-age=60"}},
		Body:   []byte("<html>hi</html>"),
		Via:    "edge-1", Fetched: time.Unix(1700000000, 5),
	})
	reply, err := holder.serveCacheRPC("edge-b", transport.Message{Type: "cache.get", Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"hit", "1780272060000000000"}; !reflect.DeepEqual(reply.Args, want) {
		t.Errorf("reply args = %q, want %q", reply.Args, want)
	}
	if got := hex.EncodeToString(reply.Body); got != goldenBody {
		t.Errorf("reply body = %s, want %s", got, goldenBody)
	}

	// The previous build's reply: the same body, no expiry.
	n := newTestNode(t, "edge-b", newMemOrigin(), func(cfg *Config) {
		cfg.Cache.Clock = func() time.Time { return now }
	})
	resp, expires := n.peerBody(transport.Message{Args: []string{"hit"}, Body: reply.Body})
	if resp == nil || !expires.Equal(now.Add(60*time.Second)) {
		t.Errorf("reply without an expiry: %+v expiring %v, want a copy expiring 60 s from now", resp, expires)
	}
}

// TestCacheGetLargeObjectGolden pins the two shapes cache.get gained when it
// became the one peer fetch: for a fresh, complete large-object copy the
// reply is "manifest" and the manifest (wire.Magic, then AppendManifest), and
// "cache.get key ord" answers one segment's bytes, or "miss".
func TestCacheGetLargeObjectGolden(t *testing.T) {
	const (
		url            = "http://big.example.org/parent"
		goldenManifest = "00012147455420687474703a2f2f6269672e6578616d706c652e6f72672f706172656e74c801010d43616368652d436f6e74726f6c010b6d61782d6167653d363030b00980020336ba98b74342b80915e79c275a06c3ca55c2281f94dceaf9d450d65aa396870c8f983904725fe27f1813d78b132b7f5cc51293e5cc47a607129d593645dffe829d71ab04017d929b8c62633db3c3b642d0413a3e03872cd863f00fe088c947cb01808098bf84e1add731"
	)
	body := lobBody(600)
	now := time.Unix(1_790_000_000, 0)
	holder := newTestNodeUpstream(t, "edge-a", &rangeOrigin{url: url, body: body}, func(cfg *Config) {
		lobConfig(256, 500)(cfg)
		cfg.Cache.Clock = func() time.Time { return now }
	})
	if _, _, err := holder.Handle(httpmsg.MustRequest("GET", url)); err != nil {
		t.Fatal(err)
	}
	get := func(args ...string) transport.Message {
		t.Helper()
		reply, err := holder.serveCacheRPC("edge-b", transport.Message{Type: "cache.get", Key: "GET " + url, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	reply := get()
	if want := []string{"manifest"}; !reflect.DeepEqual(reply.Args, want) {
		t.Errorf("reply args = %q, want %q", reply.Args, want)
	}
	if got := hex.EncodeToString(reply.Body); got != goldenManifest {
		t.Errorf("manifest = %s, want %s", got, goldenManifest)
	}
	if m, err := decodeManifest(reply.Body); err != nil || m.Key != "GET "+url || !m.Complete() || !m.Fetched.Equal(now) {
		t.Errorf("the manifest decodes to %+v, %v", m, err)
	}
	if reply := get("2"); !reflect.DeepEqual(reply.Args, []string{"hit"}) || !bytes.Equal(reply.Body, body[512:]) {
		t.Errorf("segment 2: %q with %d bytes, want a hit with the last 88", reply.Args, len(reply.Body))
	}
	for _, ord := range []string{"3", "-1", "x"} {
		if reply := get(ord); !reflect.DeepEqual(reply.Args, []string{"miss"}) || reply.Body != nil {
			t.Errorf("segment %q: %q", ord, reply.Args)
		}
	}
	now = now.Add(601 * time.Second)
	if reply := get(); !reflect.DeepEqual(reply.Args, []string{"miss"}) {
		t.Errorf("a stale copy is answered with %q", reply.Args)
	}
}

// TestBothTiersStoreAndExpireAlike is the differential check on the merged
// decisions: for every header set, an object below LargeObjectThreshold (the
// whole-body arm) and one above it (the tier arm) are kept exactly when
// httpmsg.Storable says so and the headers do not make the response stale on
// arrival, and stop being served at the same instant: the expiry itself
// (fresh only while age < lifetime), not a nanosecond after it.
func TestBothTiersStoreAndExpireAlike(t *testing.T) {
	const threshold = 10_000
	// Every node's clock starts at base, a whole second, so an Expires header
	// (one-second resolution) can name an instant exactly.
	base := time.Unix(1_800_000_000, 0)
	at := func(d time.Duration) string { return base.Add(d).UTC().Format(http.TimeFormat) }
	for _, tc := range []struct {
		name   string
		header http.Header
		ttl    time.Duration // 0: must not be served a second time
	}{
		{"no headers", http.Header{}, 60 * time.Second},
		{"max-age", http.Header{"Cache-Control": {"max-age=30"}}, 30 * time.Second},
		{"s-maxage first", http.Header{"Cache-Control": {"s-maxage=10, max-age=30"}}, 10 * time.Second},
		{"s-maxage last", http.Header{"Cache-Control": {"max-age=30, s-maxage=10"}}, 10 * time.Second},
		{"upper case", http.Header{"Cache-Control": {"MAX-AGE=30"}}, 30 * time.Second},
		{"unknown directive naming private", http.Header{"Cache-Control": {"max-age=45, x-unprivate=1"}}, 45 * time.Second},
		{"expires ahead", http.Header{"Expires": {at(90 * time.Second)}}, 90 * time.Second},
		{"second header line", http.Header{"Cache-Control": {"max-age=30", "private"}}, 0},
		{"no-store", http.Header{"Cache-Control": {"no-store"}}, 0},
		{"private", http.Header{"Cache-Control": {"private, max-age=30"}}, 0},
		{"no-cache", http.Header{"Cache-Control": {"No-Cache"}}, 0},
		// Storable, but stale on arrival: the default TTL is not for these.
		{"max-age=0", http.Header{"Cache-Control": {"max-age=0"}}, 0},
		{"s-maxage=0 over max-age", http.Header{"Cache-Control": {"max-age=60, s-maxage=0"}}, 0},
		{"expires in the past", http.Header{"Expires": {at(-time.Hour)}}, 0},
		{"expires now", http.Header{"Expires": {at(0)}}, 0},
		{"max-age=0 with a validator", http.Header{"Cache-Control": {"max-age=0"}, "Etag": {`"v1"`}}, 0},
	} {
		storable := httpmsg.Storable(200, tc.header)
		if tc.ttl > 0 && !storable {
			t.Errorf("%s: Storable = false for a response the table expects kept", tc.name)
			continue
		}
		for arm, size := range map[string]int{"whole-body": threshold / 2, "tier": threshold * 2} {
			t.Run(tc.name+"/"+arm, func(t *testing.T) {
				var fetches int
				body := lobBody(size)
				origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
					fetches++
					resp := httpmsg.NewResponse(200)
					for k, vs := range tc.header {
						resp.Header[k] = vs
					}
					resp.Body = append([]byte(nil), body...)
					return resp, nil
				})
				clock := &testClock{now: base}
				n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
					lobConfig(4096, threshold)(cfg)
					cfg.Cache.Clock = clock.Now
				})
				get := func() {
					t.Helper()
					resp, err := n.Fetch(httpmsg.MustRequest("GET", "http://site.example.org/obj"))
					if err != nil {
						t.Fatal(err)
					}
					if err := resp.Materialize(); err != nil || !bytes.Equal(resp.Body, body) {
						t.Fatalf("body differs (%d bytes, want %d): %v", len(resp.Body), len(body), err)
					}
				}
				get()
				inCache := n.Cache().Len() == 1
				inTier := n.LargeObject().Tier.Manifests == 1
				// A storable reply that is stale on arrival leaves a manifest
				// behind only when it has a validator to revalidate with; it
				// is never served unrevalidated, which the second get shows
				// (this origin answers a conditional request with a 200).
				wantTier := arm == "tier" && (tc.ttl > 0 || (storable && tc.header.Get("Etag") != ""))
				if inCache != (tc.ttl > 0 && arm == "whole-body") || inTier != wantTier {
					t.Fatalf("in whole-body cache %v, in tier %v", inCache, inTier)
				}
				if tc.ttl == 0 {
					get()
					if fetches != 2 {
						t.Errorf("origin fetches = %d, want 2 (nothing may be served from a copy)", fetches)
					}
					return
				}
				clock.Advance(tc.ttl - time.Nanosecond)
				get()
				if fetches != 1 {
					t.Fatalf("refetched a nanosecond before its expiry: %d origin fetches", fetches)
				}
				clock.Advance(time.Nanosecond)
				get()
				if fetches != 2 {
					t.Errorf("still served at the instant of its expiry: %d origin fetches, want 2", fetches)
				}
			})
		}
	}
}

// TestRevalidationToSmallerBodyIsFiledNotRefetched: a stale manifest whose
// conditional GET comes back a 200 below the threshold has just fetched the
// body to serve. It goes to the whole-body cache through the one store step:
// one origin fetch, and the next request is a whole-body hit.
func TestRevalidationToSmallerBodyIsFiledNotRefetched(t *testing.T) {
	origin := &revalOrigin{url: "http://big.example.org/feed", body: lobBody(40_000), etag: `"v1"`, maxAge: 100}
	clock := newTestClock()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Cache.Clock = clock.Now
	})
	get := func() *httpmsg.Response {
		t.Helper()
		resp, err := n.Fetch(httpmsg.MustRequest("GET", origin.url))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Materialize(); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get()
	if st := n.LargeObject(); st.Tier.Manifests != 1 {
		t.Fatalf("cold fetch not ingested: %+v", st)
	}
	small := lobBody(2_000)
	origin.mu.Lock()
	origin.body, origin.etag = small, `"v2"`
	origin.mu.Unlock()
	clock.Advance(101 * time.Second)

	if resp := get(); !bytes.Equal(resp.Body, small) {
		t.Fatalf("revalidated body: %d bytes, want the new %d", len(resp.Body), len(small))
	}
	if origin.fullHits != 2 || origin.conditionals != 1 {
		t.Errorf("after revalidation: %d full fetches, %d conditional; want 2 and 1 (the conditional GET is the second full fetch)",
			origin.fullHits, origin.conditionals)
	}
	if st := n.LargeObject(); st.Tier.Manifests != 0 {
		t.Errorf("dead manifest kept: %+v", st)
	}
	hits := n.Stats().Cache.Hits
	if resp := get(); !bytes.Equal(resp.Body, small) || !resp.FromCache {
		t.Errorf("next request: %d bytes, from cache %v", len(resp.Body), resp.FromCache)
	}
	if origin.fullHits != 2 || n.Stats().Cache.Hits != hits+1 {
		t.Errorf("next request: %d full fetches (want 2), %d whole-body hits (want %d)",
			origin.fullHits, n.Stats().Cache.Hits, hits+1)
	}
}

// TestDiskTierOnMetricsAndShutdown: after demotions, promotions and a clean
// re-demotion, the two nakika_cache_demotions_total series are the tier's own
// Stores and Clean counters and the log gauges its Stats; Shutdown then
// flushes what is not on disk yet and closes the tier, so a reopened tier
// holds every page and nothing is written afterwards.
func TestDiskTierOnMetricsAndShutdown(t *testing.T) {
	origin := newMemOrigin()
	urls := []string{"http://site.example.org/p1", "http://site.example.org/p2", "http://site.example.org/p3"}
	for _, u := range urls {
		origin.addText(u, "<html>"+u+"</html>", 600)
	}
	fs := store.NewMemFS()
	n := newTestNode(t, "edge-1", origin, func(cfg *Config) {
		cfg.DataFS = fs
		cfg.Cache.MaxEntries = 2
	})
	get := func(u string) {
		t.Helper()
		if resp, err := n.Fetch(httpmsg.MustRequest("GET", u)); err != nil || resp.Status != 200 {
			t.Fatalf("GET %s: %v, %v", u, resp, err)
		}
	}
	for _, u := range append(urls, urls...) { // three cold fetches, then three disk hits
		get(u)
	}
	st := n.Cache().Stats()
	if st.Disk.Stores != 3 || st.Disk.Clean < 1 || st.DiskHits != 3 || st.Demotions != st.Disk.Stores+st.Disk.Clean {
		t.Fatalf("cache stats %+v: want each page written once, at least one clean demotion, three disk hits", st)
	}
	var sb strings.Builder
	if err := n.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ParseExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, line := range []string{
		fmt.Sprintf(`nakika_cache_demotions_total{result="written"} %d`+"\n", st.Disk.Stores),
		fmt.Sprintf(`nakika_cache_demotions_total{result="clean"} %d`+"\n", st.Disk.Clean),
		"nakika_cache_disk_segments 1\n",
		fmt.Sprintf("nakika_cache_disk_live_bytes %d\n", st.Disk.LiveBytes),
		fmt.Sprintf(`nakika_cache_bytes{tier="disk"} %d`+"\n", st.Disk.Bytes),
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}

	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
	after := n.Cache().Stats().Disk
	if after.Stores != st.Disk.Stores || after.Clean != st.Disk.Clean+2 {
		t.Errorf("the shutdown flush: %+v, want the two pages in memory found on disk already (before: %+v)", after, st.Disk)
	}
	writes := fs.Writes()
	n.Cache().L2().Put("late", httpmsg.NewHTMLResponse(200, "late"), time.Now().Add(time.Hour))
	if fs.Writes() != writes {
		t.Error("the tier wrote after Shutdown")
	}
	re, err := cache.OpenDisk(store.Sub(fs, "cache"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(urls) {
		t.Errorf("a reopened tier holds %d entries, want %d", re.Len(), len(urls))
	}
	if got := origin.hitCount(urls[0]); got != 1 {
		t.Errorf("origin fetches of %s = %d, want 1", urls[0], got)
	}
}

// TestUnsafeMethodInvalidatesStoredCopies: a POST the origin accepts drops
// what the cache holds for its URI, in memory and on disk (RFC 9111 §4.4), so
// the next GET goes back to the origin; a safe method leaves the copy alone.
func TestUnsafeMethodInvalidatesStoredCopies(t *testing.T) {
	origin := newMemOrigin()
	onDisk, inMemory, kept := "http://site.example.org/p1", "http://site.example.org/p2", "http://site.example.org/p3"
	for _, u := range []string{onDisk, inMemory, kept} {
		origin.addText(u, "<html>"+u+"</html>", 600)
	}
	n := newTestNode(t, "edge-1", origin, func(cfg *Config) {
		cfg.DataFS = store.NewMemFS()
		cfg.Cache.MaxEntries = 1
	})
	handle := func(method, u string) {
		t.Helper()
		if resp, _, err := n.Handle(httpmsg.MustRequest(method, u)); err != nil || resp.Status != 200 {
			t.Fatalf("%s %s: %v, %v", method, u, resp, err)
		}
	}
	for _, u := range []string{onDisk, kept, inMemory} {
		handle("GET", u)
	}
	handle("POST", onDisk)
	handle("POST", inMemory)
	handle("OPTIONS", kept)
	for _, u := range []string{onDisk, inMemory, kept} {
		handle("GET", u)
	}
	for u, want := range map[string]int{onDisk: 2, inMemory: 2, kept: 1} {
		// The POST is one hit of its own; OPTIONS too.
		if got := origin.hitCount(u) - 1; got != want {
			t.Errorf("origin GETs of %s = %d, want %d", u, got, want)
		}
	}
}

// indexKeys sums nakika_overlay_index_keys over the nodes' metrics.
func indexKeys(t *testing.T, nodes ...*Node) int {
	t.Helper()
	total := 0
	for _, n := range nodes {
		var sb strings.Builder
		if err := n.Metrics().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "nakika_overlay_index_keys "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				total += int(f)
			}
		}
	}
	return total
}

// TestOverlayIndexHoldsOnlyLiveKeys: the cooperative index is bounded by live
// entries, not by history. On a 2-node ring, 1 000 Locates of keys nobody
// published, and 1 000 more of keys whose copies have expired, leave no key
// behind: nakika_overlay_index_keys reads 0 after each, where it used to
// read 1 000 and then 2 000.
func TestOverlayIndexHoldsOnlyLiveKeys(t *testing.T) {
	clock := newTestClock()
	ring := overlay.NewRing()
	ring.Clock = clock.Now
	origin := newMemOrigin()
	page := func(i int) string { return fmt.Sprintf("http://site.example.org/p%d", i) }
	for i := 0; i < 1000; i++ {
		origin.addText(page(i), "page", 60)
	}
	mutate := func(cfg *Config) {
		cfg.Ring = ring
		cfg.Cache.Clock = clock.Now
	}
	a := newTestNode(t, "edge-a", origin, mutate)
	b := newTestNode(t, "edge-b", origin, mutate)

	for i := 0; i < 1000; i++ {
		b.Overlay().Locate(fmt.Sprintf("GET http://nobody.example.org/%d", i))
	}
	if got := indexKeys(t, a, b); got != 0 {
		t.Errorf("index keys after 1000 Locates of unpublished keys = %d, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		if _, err := a.Fetch(httpmsg.MustRequest("GET", page(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := indexKeys(t, a, b); got != 2000 {
		t.Errorf("index keys with 1000 fresh copies = %d, want 2000 (each key at its owner and the owner's successor)", got)
	}
	clock.Advance(61 * time.Second)
	for i := 0; i < 1000; i++ {
		b.Overlay().Locate("GET " + page(i))
	}
	if got := indexKeys(t, a, b); got != 0 {
		t.Errorf("index keys after 1000 Locates of expired copies = %d, want 0", got)
	}
}

// TestHolderLocatedWhileCopyFresh: an index entry lives as long as the copy
// it announces, not a fixed 60 s. 61 s of virtual time after a node fetched a
// copy that is fresh for ten minutes, the overlay still locates it, and a
// peer is served from it — for a whole body and a large object alike.
func TestHolderLocatedWhileCopyFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{{"whole body", 1000}, {"large object", 30_000}} {
		t.Run(tc.name, func(t *testing.T) {
			const url = "http://big.example.org/fresh"
			body := lobBody(tc.size)
			origin := &rangeOrigin{url: url, body: body} // max-age=600
			clock := newTestClock()
			ring := overlay.NewRing()
			ring.Clock = clock.Now
			mutate := func(cfg *Config) {
				lobConfig(4096, 10_000)(cfg)
				cfg.Ring = ring
				cfg.Cache.Clock = clock.Now
			}
			a := newTestNodeUpstream(t, "edge-a", origin, mutate)
			b := newTestNodeUpstream(t, "edge-b", origin, mutate)
			if _, err := a.Fetch(httpmsg.MustRequest("GET", url)); err != nil {
				t.Fatal(err)
			}
			clock.Advance(61 * time.Second)
			if holders := b.Overlay().Locate("GET " + url); !reflect.DeepEqual(holders, []string{"edge-a"}) {
				t.Errorf("holders located 61 s in = %v, want [edge-a]", holders)
			}
			resp, err := b.Fetch(httpmsg.MustRequest("GET", url))
			if err != nil {
				t.Fatal(err)
			}
			if err := resp.Materialize(); err != nil || !bytes.Equal(resp.Body, body) {
				t.Fatalf("b's copy differs (%d bytes, %v)", len(resp.Body), err)
			}
			if full, ranged, _ := origin.counts(); full != 1 || ranged != 0 {
				t.Errorf("origin fetches = %d full, %d range; want the first node's only", full, ranged)
			}
		})
	}
}

// TestUnsafeMethodDropsLargeObjectCopy: a POST the origin accepts drops the
// large-object copy of its URI as it drops a whole body (RFC 9111 §4.4), and
// withdraws the node's entry from the cooperative index, so the next GET goes
// back to the origin instead of streaming the old object.
func TestUnsafeMethodDropsLargeObjectCopy(t *testing.T) {
	const url = "http://big.example.org/doc"
	body := lobBody(30_000)
	origin := &rangeOrigin{url: url, body: body}
	ring := overlay.NewRing()
	mutate := func(cfg *Config) {
		lobConfig(4096, 10_000)(cfg)
		cfg.Ring = ring
	}
	a := newTestNodeUpstream(t, "edge-a", origin, mutate)
	b := newTestNodeUpstream(t, "edge-b", origin, mutate)
	handle := func(method string) *httpmsg.Response {
		t.Helper()
		resp, _, err := a.Handle(httpmsg.MustRequest(method, url))
		if err != nil || resp.Status != 200 {
			t.Fatalf("%s: %v, %v", method, resp, err)
		}
		return resp
	}
	handle("GET")
	handle("POST")
	resp := handle("GET")
	if err := resp.Materialize(); err != nil || !bytes.Equal(resp.Body, body) {
		t.Fatalf("GET after the POST: %d bytes, %v", len(resp.Body), err)
	}
	// The origin sees the first GET, the POST, and the GET after it.
	if full, _, _ := origin.counts(); full != 3 {
		t.Errorf("origin requests = %d, want 3: the GET after the POST was served the old copy", full)
	}
	if st := a.LargeObject(); st.WholeIngests != 2 {
		t.Errorf("whole ingests = %d, want 2", st.WholeIngests)
	}
	handle("POST")
	if holders := b.Overlay().Locate("GET " + url); len(holders) != 0 {
		t.Errorf("holders located after the POST = %v, want none", holders)
	}
}

// oldPeer stands in for a node running the build before cache.get served
// large objects: it answers every cache.get for its object with the whole
// body, whatever the arguments, and claims to hold the object when asked.
type oldPeer struct {
	key  string
	body []byte

	mu       sync.Mutex
	holding  bool
	segAsked int
}

func (p *oldPeer) serve(from string, msg transport.Message) (transport.Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if msg.Key != p.key || !p.holding {
		return transport.Message{Args: []string{"miss"}}, nil
	}
	switch msg.Type {
	case "ov.locate":
		return transport.Message{Args: []string{"edge-old"}}, nil
	case "cache.get":
		if len(msg.Args) > 0 {
			p.segAsked++
		}
		resp := httpmsg.NewResponse(200)
		resp.SetMaxAge(600)
		resp.Body = p.body
		return transport.Message{Args: []string{"hit"}, Body: httpmsg.EncodeResponse(resp)}, nil
	}
	return transport.Message{}, nil
}

// TestParentBuildPeers: in a ring that still has nodes of the build before
// this wire, each mismatch ends at the origin and never serves wrong bytes.
func TestParentBuildPeers(t *testing.T) {
	t.Run("lob.seg is refused", func(t *testing.T) {
		ring := overlay.NewRing()
		newTestNodeUpstream(t, "edge-a", &rangeOrigin{}, func(cfg *Config) { cfg.Ring = ring })
		_, err := ring.Transport.Call("edge-old", "edge-a", transport.Message{Type: "lob.seg", Key: "GET http://big.example.org/x", Args: []string{"0"}})
		if err == nil {
			t.Error("a lob.seg request was answered")
		}
	})
	t.Run("a publish without an expiry is not recorded", func(t *testing.T) {
		const url = "http://big.example.org/old"
		origin := &rangeOrigin{url: url, body: lobBody(1000)}
		ring := overlay.NewRing()
		a := newTestNodeUpstream(t, "edge-a", origin, func(cfg *Config) { cfg.Ring = ring })
		peer := &oldPeer{key: "GET " + url, body: []byte("not the object"), holding: true}
		ring.Transport.Register("edge-old", peer.serve)
		if _, err := ring.Transport.Call("edge-old", "edge-a", transport.Message{Type: "ov.publish", Key: "GET " + url}); err != nil {
			t.Fatal(err)
		}
		if holders := a.Overlay().Locate("GET " + url); len(holders) != 0 {
			t.Fatalf("holders = %v, want none", holders)
		}
		resp, err := a.Fetch(httpmsg.MustRequest("GET", url))
		if err != nil || !bytes.Equal(resp.Body, origin.body) {
			t.Fatalf("served %q, %v", resp.Body, err)
		}
		if full, _, _ := origin.counts(); full != 1 {
			t.Errorf("origin fetches = %d, want 1", full)
		}
	})
	t.Run("a whole body answering a segment request fails the hash check", func(t *testing.T) {
		// The old peer owns the object's index entry.
		ring := overlay.NewRing()
		ring.AddRemote("edge-old", "r")
		body := lobBody(60_000)
		origin := &rangeOrigin{body: body}
		a := newTestNodeUpstream(t, "edge-a", origin, func(cfg *Config) {
			lobConfig(4096, 10_000)(cfg)
			cfg.LargeObjectCapacity = 5 * 4096 // the slab holds 5 of the 15 segments
			cfg.Ring = ring
		})
		url := "http://big.example.org/seg"
		for i := 0; ring.Successor("GET "+url).Name != "edge-old"; i++ {
			url = fmt.Sprintf("http://big.example.org/seg-%d", i)
		}
		origin.url = url
		peer := &oldPeer{key: "GET " + url, body: body}
		ring.Transport.Register("edge-old", peer.serve)
		if _, err := a.Fetch(httpmsg.MustRequest("GET", url)); err != nil {
			t.Fatal(err)
		}
		peer.mu.Lock()
		peer.holding = true
		peer.mu.Unlock()
		resp, err := a.Fetch(httpmsg.MustRequest("GET", url))
		if err != nil {
			t.Fatal(err)
		}
		if got := readStream(t, resp, 0, resp.TotalLen()); !bytes.Equal(got, body) {
			t.Fatal("the object differs")
		}
		full, ranged, _ := origin.counts()
		if st := a.LargeObject(); full != 1 || ranged == 0 || st.SegPeerFetches != 0 || peer.segAsked == 0 {
			t.Errorf("%d full and %d range origin fetches, %d segments from peers, the old peer asked %d times; want the missing segments from the origin",
				full, ranged, st.SegPeerFetches, peer.segAsked)
		}
	})
}
