package core

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"nakika/internal/cache"
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
	if n.lob != nil {
		st.Tier = n.lob.Stats()
	}
	return st
}

// openLob opens the tier on fs (see openStorage), when the node runs one;
// from then on the tier is on exactly when n.lob is set.
func (n *Node) openLob(fs store.FS) error {
	if n.cfg.LargeObjectThreshold <= 0 {
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
	t.SetFetcher(n.lobFetch)
	n.lob = t
	return nil
}

// ---------------------------------------------------------------------------
// Serving: manifest -> lazy streamed response
// ---------------------------------------------------------------------------

// lobStale reports whether m must be revalidated before it is served again:
// its expiry, which cache.Expiry gave it when it was stored or renewed,
// against the node clock by the cache's own predicate, as a whole-body entry
// is judged. A manifest whose headers made it stale on arrival is therefore
// never served unrevalidated: it is kept for its validators alone.
func (n *Node) lobStale(m *largeobject.Manifest) bool {
	return cache.Expired(m.Expires, n.clock())
}

// lobServe is the tier's half of the chain's lookup step: a streamed
// response for key if the tier holds a fresh manifest for it, else the stale
// manifest the tier keeps for its validators (cache.Kept), which the flight's
// leader revalidates like a whole-body copy. A stale manifest without them is
// dropped.
func (n *Node) lobServe(key string) (*httpmsg.Response, cache.Stale) {
	if n.lob == nil {
		return nil, cache.Stale{}
	}
	m, ok := n.lob.Manifest(key)
	return n.lobServeManifest(nil, m, ok)
}

// lobServeManifest is lobServe of the manifest the tier looked up, if ok,
// in reply to req (nil: to no request in particular; see lobStream).
func (n *Node) lobServeManifest(req *httpmsg.Request, m *largeobject.Manifest, ok bool) (*httpmsg.Response, cache.Stale) {
	switch {
	case !ok:
		return nil, cache.Stale{}
	case !n.lobStale(m):
		return n.lobStream(req, m), cache.Stale{}
	case cache.Kept(m.Header, m.Expires, n.clock()):
		return nil, cache.Stale{Tier: "lob", Header: m.Header, Expires: m.Expires}
	}
	n.lob.DeleteManifest(m.Key)
	return nil, cache.Stale{}
}

// lobStream builds the streamed response for a manifest, on the stream the
// tier keeps for it, in the Response req's connection lends (a fresh one
// for a nil req: a flight's leader shares its response with the joiners).
// Missing segments resolve lazily as the client reads: slab, then a holder
// the overlay locates, then an origin Range refetch — each verified against
// the manifest's content address (lobFetch).
func (n *Node) lobStream(req *httpmsg.Request, m *largeobject.Manifest) *httpmsg.Response {
	n.lobStreamed.Add(1)
	resp := httpmsg.ResponseTo(req, m.Status)
	resp.Header = m.Header
	resp.FromCache = true
	resp.SetStream(n.lob.NewStream(m, nil))
	return resp
}

// lobRenew is renew for key's manifest: one the 304 renews (cache.Renew)
// keeps its segment bodies, takes the updated header and expiry, and is
// served as a stream; otherwise nil.
func (n *Node) lobRenew(key string, nm *httpmsg.Response) *httpmsg.Response {
	if n.lob == nil {
		return nil
	}
	m, ok := n.lob.Manifest(key)
	if !ok {
		return nil
	}
	if h, renewal, expires := n.cache.Renew(m.Status, m.Header, nm.Header); renewal == cache.Renewed {
		if renewed, ok := n.lob.RefreshManifest(key, h, expires); ok {
			return n.lobStream(nil, renewed)
		}
	}
	return nil
}

// lobAdopt adopts the manifest a holder sent for key in a cache.get reply
// and serves it as a stream. This is how a node that never saw the object —
// or lost its soft state in a crash — serves a range without refetching the
// whole body. Only a complete manifest of the same key that is not stale is
// adopted: anything else would serve another object, a hole, or an expired
// copy, so the node fetches from the origin instead. The adopted manifest
// keeps the holder's expiry, as a whole body copied from a peer does
// (cache.PutUntil): a copy never outlives the one it was taken from.
func (n *Node) lobAdopt(key string, body []byte) *httpmsg.Response {
	if n.lob == nil {
		return nil
	}
	m, err := decodeManifest(body)
	if err != nil || m.Key != key || !m.Complete() || n.lobStale(m) {
		return nil
	}
	if err := n.lob.PutManifest(m); err != nil {
		return nil
	}
	n.lobAdopted.Add(1)
	return n.lobStream(nil, m)
}

// ---------------------------------------------------------------------------
// Pull-through streaming ingest
// ---------------------------------------------------------------------------

// StreamHead describes a streaming origin response before its body has been
// consumed: status, headers, and the declared content length (-1 unknown).
type StreamHead struct {
	Status int
	Header httpmsg.Header
	Length int64
}

// StreamFetcher is the optional upstream interface that exposes a response
// body as a stream instead of buffering it. When the upstream supports it,
// a cold fetch of a large object is ingested segment by segment while the
// first client reads — first byte reaches the client before the origin
// finishes sending (cut-through, Section 2's bucket brigade at object
// granularity). Fetchers that only implement Do still work; large objects
// are then chunked after the buffered fetch completes. The head's Header is
// handed over: the fetcher keeps no reference to it, so the reply built
// from it owns it.
type StreamFetcher interface {
	DoStream(req *httpmsg.Request) (StreamHead, io.ReadCloser, error)
}

// lobStreamOrigin is the streaming half of the chain's origin step. When the
// upstream can stream and the tier wants the reply (lobTakes, asked of the
// head before a body byte is read), the returned response streams the object
// while the tier ingests it in the background. A reply the tier does not want is
// buffered as Upstream.Do buffers one (httpmsg.ReadWhole, at its declared
// length) and returned for the store step to file like any other. (nil,
// nil) means the caller should fetch through Upstream.Do itself.
func (n *Node) lobStreamOrigin(key string, req *httpmsg.Request) (*httpmsg.Response, error) {
	sf, ok := n.cfg.Upstream.(StreamFetcher)
	if !ok || n.lob == nil || req.Method != http.MethodGet {
		return nil, nil
	}
	head, body, err := sf.DoStream(req)
	if err != nil {
		// A failed streaming fetch is not fatal to the request: the caller
		// falls back to the buffered Do path, which may succeed (and reports
		// its own error if it does not).
		return nil, nil
	}
	expires, ok := n.lobTakes(req, key, head.Status, head.Header, head.Length)
	if !ok {
		defer body.Close()
		data, err := httpmsg.ReadWhole(body, head.Length)
		if err != nil {
			return nil, fmt.Errorf("core: read origin body: %w", err)
		}
		resp := httpmsg.NewResponse(head.Status)
		resp.Header = head.Header
		resp.Body = data
		return resp, nil
	}

	// Large object: the tier installs the manifest and chunks the body in
	// the background, and the client reads a stream that rides the ingest.
	// The copy is announced when the ingest completes.
	m, err := n.lob.IngestStream(key, head.Status, head.Header, head.Length, expires, body, func(err error) {
		if err == nil {
			n.publish(key)
		}
	})
	if err != nil {
		return nil, err
	}
	n.lobStreamIng.Add(1)
	resp := httpmsg.NewResponse(m.Status)
	resp.Header = m.Header
	resp.SetStream(n.lob.NewStream(m, nil))
	return resp, nil
}

// ---------------------------------------------------------------------------
// Segment resolution: slab -> peer -> origin Range
// ---------------------------------------------------------------------------

// lobFetch is the tier's resolver (Tier.SetFetcher) for the segments of m's
// object the slab does not hold (the stream has consulted it, and waited on
// an ingest in flight): a holder the overlay locates, then an origin Range
// refetch, coalesced per (key, ordinal) so a thundering herd of readers
// costs one fetch per segment.
func (n *Node) lobFetch(m *largeobject.Manifest, ord int) ([]byte, error) {
	key := m.Key
	// All callers share the returned bytes: segment buffers are read-only by
	// contract (readers copy out of them).
	data, _, _, err := n.segFlights.Do(key+"#"+strconv.Itoa(ord), func() ([]byte, error) {
		return n.lobFetchSegment(key, ord)
	})
	return data, err
}

// lobFetchSegment is the single-flight leader path for one missing segment.
func (n *Node) lobFetchSegment(key string, ord int) ([]byte, error) {
	t := n.lob
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
			n.lobMaybeAnnounce(key)
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
	n.lobMaybeAnnounce(key)
	return data, nil
}

// lobSegment returns segment ord of key's copy for a peer's cache.get. Only
// an ordinal whose id the local manifest records is served, so an in-flight
// ingest exposes exactly the segments it has chunked.
func (n *Node) lobSegment(key, ord string) ([]byte, bool) {
	if n.lob == nil {
		return nil, false
	}
	m, ok := n.lob.Manifest(key)
	i, err := strconv.Atoi(ord)
	if !ok || err != nil || i < 0 || i >= len(m.Segments) {
		return nil, false
	}
	return n.lob.GetSegment(m.Segments[i])
}

// lobMaybeAnnounce announces this node's copy of key once it holds every
// segment. Announcing per segment fetch would turn every read into an index
// update; a complete copy is the one residency transition worth advertising
// (it makes this node a full peer source).
func (n *Node) lobMaybeAnnounce(key string) {
	if m, ok := n.lob.Manifest(key); ok && m.Complete() && n.lob.Resident(m) == m.NumSegments() {
		n.publish(key)
	}
}
