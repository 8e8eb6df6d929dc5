package core

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// This file wires the chunked large-object tier (internal/largeobject) into
// the node: responses above Config.LargeObjectThreshold are split into
// content-addressed segments held in a disk slab, served back as lazy
// BodyStreams (so header-only scripts and Range requests never buffer the
// body), and announced in the overlay's cooperative index like any cached
// copy. Everything here is node-local soft state: a peer learns the manifest
// from a holder's cache.get reply and pulls the segments the same way.

// Large-object defaults: segment size balances the waste of a short last
// segment against per-segment overhead; capacity bounds the slab's disk
// footprint.
const (
	defaultLobSegment  = 256 << 10
	defaultLobCapacity = 512 << 20
)

// LargeObjectStats snapshots the tier plus the node's large-object counters.
type LargeObjectStats struct {
	Tier largeobject.Stats
	// StreamedServes counts responses served as lazy segment streams;
	// WholeIngests counts buffered bodies chunked into the tier after the
	// fact, StreamIngests cold fetches chunked as they arrived from the
	// origin. Adopted counts manifests learned from a holder's cache.get
	// reply; SegPeerFetches/SegOriginFetches count individual segment
	// bodies pulled from peers and from the origin (Range refetch).
	StreamedServes   int64
	WholeIngests     int64
	StreamIngests    int64
	Adopted          int64
	SegPeerFetches   int64
	SegOriginFetches int64
}

// LargeObject returns the node's large-object telemetry (zero when the tier
// is disabled).
func (n *Node) LargeObject() LargeObjectStats {
	st := LargeObjectStats{
		StreamedServes:   n.lobStreamed.Load(),
		WholeIngests:     n.lobWhole.Load(),
		StreamIngests:    n.lobStreamIng.Load(),
		Adopted:          n.lobAdopted.Load(),
		SegPeerFetches:   n.lobSegPeer.Load(),
		SegOriginFetches: n.lobSegOrigin.Load(),
	}
	if t := n.lobTier(); t != nil {
		st.Tier = t.Stats()
	}
	return st
}

// lobEnabled reports whether the node runs a large-object tier.
func (n *Node) lobEnabled() bool { return n.cfg.LargeObjectThreshold > 0 }

// openLob opens the tier on fs (see openStorage).
func (n *Node) openLob(fs store.FS) error {
	if !n.lobEnabled() {
		return nil
	}
	segSize := n.cfg.LargeObjectSegment
	if segSize <= 0 {
		segSize = defaultLobSegment
	}
	capacity := n.cfg.LargeObjectCapacity
	if capacity <= 0 {
		capacity = defaultLobCapacity
	}
	t, err := largeobject.OpenTier(fs, segSize, capacity)
	if err != nil {
		return fmt.Errorf("core: open large-object tier: %w", err)
	}
	n.lobMu.Lock()
	n.lob = t
	n.lobMu.Unlock()
	return nil
}

// lobTier returns the current tier handle (nil when disabled or crashed).
func (n *Node) lobTier() *largeobject.Tier {
	n.lobMu.Lock()
	defer n.lobMu.Unlock()
	return n.lob
}

// ---------------------------------------------------------------------------
// Serving: manifest -> lazy streamed response
// ---------------------------------------------------------------------------

// lobStale reports whether m must be revalidated before it is served again:
// the cache's Expiry for the manifest's headers and fetch time, against the
// cache clock and by the cache's own predicate — the decision cache.Put takes
// for a buffered entry. A manifest whose headers made it stale on arrival is
// therefore never served unrevalidated: it is kept for its validators alone.
func (n *Node) lobStale(m *largeobject.Manifest) bool {
	return n.cache.Stale(m.Header, m.Fetched)
}

// lobServe is the tier's half of the chain's lookup step: a streamed
// response for key if the tier holds a fresh manifest for it.
//
// A stale manifest is never served. The flight's leader revalidates it
// against the origin with the stored validators; anyone else (the pre-flight
// fast path) falls through to the flight, so a stampede on an expired object
// still costs one conditional request.
func (n *Node) lobServe(key string, leader bool) *httpmsg.Response {
	t := n.lobTier()
	if t == nil {
		return nil
	}
	m, ok := t.Manifest(key)
	if !ok {
		return nil
	}
	if n.lobStale(m) {
		if !leader {
			return nil
		}
		return n.lobRevalidate(t, key, m)
	}
	return n.lobStream(t, key, m)
}

// lobStream builds the streamed response for a manifest. Missing segments
// resolve lazily as the client reads: slab, then a holder the overlay
// locates, then an origin Range refetch — each verified against the
// manifest's content address.
func (n *Node) lobStream(t *largeobject.Tier, key string, m *largeobject.Manifest) *httpmsg.Response {
	n.lobStreamed.Add(1)
	resp := httpmsg.NewResponse(m.Status)
	for k, vs := range m.Header {
		resp.Header[k] = append([]string(nil), vs...)
	}
	resp.Fetched = m.Fetched
	resp.FromCache = true
	resp.SetStream(t.NewStream(m, n.lobFetcher(key)))
	return resp
}

// lobRevalidate refreshes a stale manifest with a conditional origin GET on
// the stored validators and returns the response to serve. A 304 renews the
// manifest — cache.Refresh semantics at the tier: freshness extends, segment
// bodies are kept. Anything else means the old segments are dead: the
// manifest is dropped, and a 200 goes through the chain's store step like
// any other origin reply (re-ingested if it still qualifies for the tier,
// filed in the whole-body cache if it shrank below the threshold) and is
// served. Nil sends the caller on down the chain to refetch.
func (n *Node) lobRevalidate(t *largeobject.Tier, key string, m *largeobject.Manifest) *httpmsg.Response {
	// Counted once, by how it ends: failed unless a 304 or a 200 says otherwise.
	result := &n.lobRevalFailed
	defer func() { result.Add(1) }()
	etag := m.Header.Get("Etag")
	lastMod := m.Header.Get("Last-Modified")
	_, url, ok := strings.Cut(m.Key, " ")
	if !ok || (etag == "" && lastMod == "") {
		t.DeleteManifest(key)
		return nil
	}
	req, err := httpmsg.NewRequest(http.MethodGet, url)
	if err != nil {
		t.DeleteManifest(key)
		return nil
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if lastMod != "" {
		req.Header.Set("If-Modified-Since", lastMod)
	}
	n.originFetches.Add(1)
	resp, err := n.cfg.Upstream.Do(req)
	if err != nil {
		// Origin unreachable: keep the manifest (its validators stay usable
		// for the next attempt) but never serve stale — the rest of the chain
		// surfaces the fetch error, as the whole-body cache would.
		return nil
	}
	if resp.Status == http.StatusNotModified {
		refreshed, ok := t.RefreshManifest(key, n.cache.Now(), resp.Header)
		if !ok {
			return nil
		}
		result = &n.lobRevalSame
		n.publish(key)
		return n.lobStream(t, key, refreshed)
	}
	t.DeleteManifest(key)
	if resp.Status != http.StatusOK {
		return nil
	}
	result = &n.lobRevalNew
	n.storeReply(key, resp)
	return resp
}

// lobAdopt adopts the manifest a holder sent for key in a cache.get reply
// and serves it as a stream. This is how a node that never saw the object —
// or lost its soft state in a crash — serves a range without refetching the
// whole body. Only a complete manifest of the same key that is not stale is
// adopted: anything else would serve another object, a hole, or an expired
// copy, so the node fetches from the origin instead.
func (n *Node) lobAdopt(key string, body []byte) *httpmsg.Response {
	t := n.lobTier()
	if t == nil {
		return nil
	}
	m, err := decodeManifest(body)
	if err != nil || m.Key != key || !m.Complete() || n.lobStale(m) {
		return nil
	}
	if err := t.PutManifest(m); err != nil {
		return nil
	}
	n.lobAdopted.Add(1)
	return n.lobStream(t, key, m)
}

// ---------------------------------------------------------------------------
// Pull-through streaming ingest
// ---------------------------------------------------------------------------

// StreamHead describes a streaming origin response before its body has been
// consumed: status, headers, and the declared content length (-1 unknown).
type StreamHead struct {
	Status int
	Header http.Header
	Length int64
}

// StreamFetcher is the optional upstream interface that exposes a response
// body as a stream instead of buffering it. When the upstream supports it,
// a cold fetch of a large object is ingested segment by segment while the
// first client reads — first byte reaches the client before the origin
// finishes sending (cut-through, Section 2's bucket brigade at object
// granularity). Fetchers that only implement Do still work; large objects
// are then chunked after the buffered fetch completes.
type StreamFetcher interface {
	DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error)
}

// lobIngest tracks one in-flight streaming ingest so concurrent readers of
// the same object can wait for the segment they need instead of refetching.
type lobIngest struct {
	mu       sync.Mutex
	cond     *sync.Cond
	appended int
	done     bool
	err      error
}

func newLobIngest() *lobIngest {
	ing := &lobIngest{}
	ing.cond = sync.NewCond(&ing.mu)
	return ing
}

func (ing *lobIngest) advance(appended int) {
	ing.mu.Lock()
	ing.appended = appended
	ing.mu.Unlock()
	ing.cond.Broadcast()
}

func (ing *lobIngest) finish(err error) {
	ing.mu.Lock()
	ing.done = true
	ing.err = err
	ing.mu.Unlock()
	ing.cond.Broadcast()
}

// waitFor blocks until segment ord has been appended or the ingest ended,
// returning the ingest error (nil when ord is available or the ingest
// completed, in which case the segment id is in the manifest).
func (ing *lobIngest) waitFor(ord int) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for ing.appended <= ord && !ing.done {
		ing.cond.Wait()
	}
	return ing.err
}

// lobIngestFor returns the in-flight ingest for key, if any.
func (n *Node) lobIngestFor(key string) *lobIngest {
	n.lobIngMu.Lock()
	defer n.lobIngMu.Unlock()
	return n.lobIngests[key]
}

// lobStreamOrigin is the streaming half of the chain's origin step. When the
// upstream can stream and the tier wants the reply (lobTakes, asked of the
// head before a body byte is read), the returned response streams the object
// while a background goroutine ingests it. A reply the tier does not want is
// buffered and returned for the store step to file like any other. (nil,
// nil) means the caller should fetch through Upstream.Do itself.
func (n *Node) lobStreamOrigin(key string, req *httpmsg.Request) (*httpmsg.Response, error) {
	sf, ok := n.cfg.Upstream.(StreamFetcher)
	if !ok || n.lobTier() == nil || req.Method != http.MethodGet {
		return nil, nil
	}
	head, body, err := sf.DoStream(req)
	if err != nil {
		// A failed streaming fetch is not fatal to the request: the caller
		// falls back to the buffered Do path, which may succeed (and reports
		// its own error if it does not).
		return nil, nil
	}
	t := n.lobTakes(key, head.Status, head.Header, head.Length)
	if t == nil {
		defer body.Close()
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, fmt.Errorf("core: read origin body: %w", err)
		}
		resp := httpmsg.NewResponse(head.Status)
		if h := head.Header.Clone(); h != nil {
			resp.Header = h
		}
		resp.Body = data
		return resp, nil
	}

	// Large object: install the (incomplete, memory-only) manifest, start
	// the background ingest, and hand the client a stream that rides it. The
	// copy is announced when the ingest completes.
	m := &largeobject.Manifest{
		Key:      key,
		Status:   head.Status,
		Header:   head.Header.Clone(),
		TotalLen: head.Length,
		SegSize:  t.SegSize(),
		Fetched:  n.cache.Now(),
	}
	if err := t.PutManifest(m); err != nil {
		body.Close()
		return nil, err
	}
	ing := newLobIngest()
	n.lobIngMu.Lock()
	if n.lobIngests == nil {
		n.lobIngests = make(map[string]*lobIngest)
	}
	n.lobIngests[key] = ing
	n.lobIngMu.Unlock()
	n.lobStreamIng.Add(1)
	go n.lobIngestLoop(t, key, m, ing, body)

	resp := httpmsg.NewResponse(m.Status)
	resp.Header = m.Header.Clone()
	resp.Fetched = m.Fetched
	resp.SetStream(t.NewStream(m, n.lobFetcher(key)))
	return resp, nil
}

// lobIngestLoop chunks the origin body into the tier. Segment ids become
// visible to concurrent streams through AppendSegment; the ingest tracker
// wakes readers blocked on a not-yet-arrived segment. A short or failed body
// aborts the ingest and drops the manifest — readers see the error, and the
// next request refetches.
func (n *Node) lobIngestLoop(t *largeobject.Tier, key string, m *largeobject.Manifest, ing *lobIngest, body io.ReadCloser) {
	defer body.Close()
	defer func() {
		n.lobIngMu.Lock()
		delete(n.lobIngests, key)
		n.lobIngMu.Unlock()
	}()
	buf := make([]byte, t.SegSize())
	numSegs := m.NumSegments()
	for ord := 0; ord < numSegs; ord++ {
		from, to := m.SegmentSpan(ord)
		chunk := buf[:to-from]
		if _, err := io.ReadFull(body, chunk); err != nil {
			t.DeleteManifest(key)
			ing.finish(fmt.Errorf("core: ingest %q segment %d: %w", key, ord, err))
			return
		}
		id := largeobject.HashSegment(chunk)
		if err := t.PutSegment(id, chunk); err != nil {
			t.DeleteManifest(key)
			ing.finish(err)
			return
		}
		if _, err := t.AppendSegment(key, ord, id); err != nil {
			ing.finish(err)
			return
		}
		ing.advance(ord + 1)
	}
	ing.finish(nil)
	n.publish(key)
}

// ---------------------------------------------------------------------------
// Segment resolution: slab -> in-flight ingest -> peer -> origin Range
// ---------------------------------------------------------------------------

// lobFetcher returns the tier stream's resolver for key's missing segments.
// The slab was already consulted by the stream; here the order is: wait on
// an in-flight ingest, then a holder the overlay locates, then an origin
// Range refetch — each coalesced per (key, ordinal) so a thundering
// herd of readers costs one fetch per segment.
func (n *Node) lobFetcher(key string) largeobject.Fetcher {
	return func(m *largeobject.Manifest, ord int) ([]byte, error) {
		if ing := n.lobIngestFor(key); ing != nil {
			n.lobIngWaits.Add(1)
			if err := ing.waitFor(ord); err != nil {
				return nil, err
			}
			// The ingest appended ord (or finished): its id is in the
			// current manifest and the body should be in the slab. Fall
			// through to the shared path if it was already evicted.
			if t := n.lobTier(); t != nil {
				if cur, ok := t.Manifest(key); ok && ord < len(cur.Segments) {
					if data, ok := t.GetSegment(cur.Segments[ord]); ok {
						return data, nil
					}
				}
			}
		}
		// All callers share the returned bytes: segment buffers are
		// read-only by contract (readers copy out of them).
		data, _, _, err := n.segFlights.Do(key+"#"+strconv.Itoa(ord), func() ([]byte, error) {
			return n.lobFetchSegment(key, ord)
		})
		return data, err
	}
}

// lobFetchSegment is the single-flight leader path for one missing segment.
func (n *Node) lobFetchSegment(key string, ord int) ([]byte, error) {
	t := n.lobTier()
	if t == nil {
		return nil, fmt.Errorf("core: large-object tier unavailable")
	}
	m, ok := t.Manifest(key)
	if !ok {
		return nil, fmt.Errorf("core: no manifest for %q", key)
	}
	var want largeobject.SegID
	haveID := ord < len(m.Segments)
	if haveID {
		want = m.Segments[ord]
		// Re-check the slab: another reader may have resolved this ordinal
		// between the stream's miss and this flight winning the slot.
		if data, ok := t.GetSegment(want); ok {
			return data, nil
		}
	}
	from, to := m.SegmentSpan(ord)

	// The holders the overlay locates, in sorted order for determinism. A
	// reply is taken only if it hashes to the segment's id: anything else is
	// a corrupt copy, or an older build's whole-body answer.
	if haveID && n.overlay != nil && n.tr != nil {
		holders := n.overlay.Locate(key)
		sort.Strings(holders)
		for _, h := range holders {
			if h == n.cfg.Name {
				continue
			}
			reply, err := n.call(h, transport.Message{Type: msgCacheGet, Key: key, Args: []string{strconv.Itoa(ord)}})
			if err != nil || len(reply.Args) == 0 || reply.Args[0] != "hit" || largeobject.HashSegment(reply.Body) != want {
				continue
			}
			n.lobSegPeer.Add(1)
			t.PutSegment(want, reply.Body)
			n.lobMaybeAnnounce(t, key)
			return reply.Body, nil
		}
	}

	// Origin Range refetch. The cache key is "METHOD URL" (CacheKey), so
	// the URL is recoverable without keeping the original request around.
	_, url, ok := strings.Cut(m.Key, " ")
	if !ok {
		return nil, fmt.Errorf("core: malformed manifest key %q", m.Key)
	}
	req, err := httpmsg.NewRequest(http.MethodGet, url)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", from, to-1))
	n.originFetches.Add(1)
	n.lobSegOrigin.Add(1)
	resp, err := n.cfg.Upstream.Do(req)
	if err != nil {
		return nil, err
	}
	var data []byte
	switch resp.Status {
	case http.StatusPartialContent:
		data = resp.Body
	case http.StatusOK:
		// Origin ignored the Range header: slice the span out of the full
		// body (a correct 200 must carry the whole object).
		if int64(len(resp.Body)) != m.TotalLen {
			return nil, fmt.Errorf("core: origin sent %d bytes for %d-byte object", len(resp.Body), m.TotalLen)
		}
		data = resp.Body[from:to]
	default:
		return nil, fmt.Errorf("core: origin range fetch returned %d", resp.Status)
	}
	if int64(len(data)) != to-from {
		return nil, fmt.Errorf("core: origin range fetch: got %d bytes, want %d", len(data), to-from)
	}
	if haveID && largeobject.HashSegment(data) != want {
		return nil, fmt.Errorf("core: segment %d of %q failed content verification", ord, key)
	}
	id := want
	if !haveID {
		id = largeobject.HashSegment(data)
	}
	t.PutSegment(id, data)
	n.lobMaybeAnnounce(t, key)
	return data, nil
}

// lobSegment returns segment ord of key's copy for a peer's cache.get. Only
// an ordinal whose id the local manifest records is served, so an in-flight
// ingest exposes exactly the segments it has chunked.
func (n *Node) lobSegment(key, ord string) ([]byte, bool) {
	t := n.lobTier()
	if t == nil {
		return nil, false
	}
	m, ok := t.Manifest(key)
	i, err := strconv.Atoi(ord)
	if !ok || err != nil || i < 0 || i >= len(m.Segments) {
		return nil, false
	}
	return t.GetSegment(m.Segments[i])
}

// lobMaybeAnnounce announces this node's copy of key once it holds every
// segment. Announcing per segment fetch would turn every read into an index
// update; a complete copy is the one residency transition worth advertising
// (it makes this node a full peer source).
func (n *Node) lobMaybeAnnounce(t *largeobject.Tier, key string) {
	if m, ok := t.Manifest(key); ok && m.Complete() && t.Resident(m) == m.NumSegments() {
		n.publish(key)
	}
}
