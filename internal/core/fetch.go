package core

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"nakika/internal/cache"
	"nakika/internal/httpmsg"
	"nakika/internal/transport"
)

// This file is the node's fetch path, one explicit chain that the whole-body
// cache and the large-object tier both hang off:
//
//	lookup → coalesce → (stale: conditional origin | miss: peer → origin) → store
//
// Seven decisions are taken on the way, each written once: whether a shared
// cache may store a response, and so share it (httpmsg.Shareable), until when
// it is fresh (cache.Expiry, computed on the node clock when a copy is stored
// or renewed, and kept with the copy), which expired copies are kept for
// their validators (cache.Kept), what a 304 renews (cache.Renew), how long a
// kept copy outlives a failed revalidation (cache.ServesStale), how
// concurrent misses coalesce (cache.Group) and where an origin reply is filed
// (storeReply). The large-object half of each step lives in largeobject.go.

// fetchWithCache is the pipeline's origin fetcher and the entry to the
// chain. Only GET and HEAD are cacheable; everything else goes straight to
// the origin, and an unsafe method the origin accepts invalidates what the
// cache holds for its URI.
func (n *Node) fetchWithCache(req *httpmsg.Request) (*httpmsg.Response, error) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		n.originFetches.Add(1)
		resp, err := n.cfg.Upstream.Do(req)
		if err == nil && resp.Status < 400 && req.Method != http.MethodOptions && req.Method != http.MethodTrace {
			n.invalidate(req)
		}
		return resp, err
	}
	// The request's own lookup reads the whole-body tiers by the key's
	// bytes, in the buffer its connection lends, into the buffer and the
	// Response it lends: a warm hit allocates nothing. The large-object
	// tier is read by the same bytes, and the key string is made past a
	// miss in all three, for the rest of the chain.
	kb := req.CacheKeyBytes()
	resp := n.cache.GetFor(kb, req)
	if resp == nil && n.lob != nil {
		m, ok := n.lob.ManifestBytes(kb)
		resp, _ = n.lobServeManifest(req, m, ok)
	}
	if resp != nil {
		n.cacheHits.Add(1)
		return resp, nil
	}
	key := string(kb)
	// Coalesce: concurrent misses of one request share a single pass through
	// the rest of the chain, so a cold-cache stampede costs one upstream
	// request instead of N. Only a reply a shared cache may reuse is shared:
	// a joiner of a flight whose reply was for its leader alone (private, or
	// to the leader's credentials) fetches for itself.
	reply, joined, shared, err := n.flights.Do(flightKey(key, req.Header), func() (flightReply, error) {
		resp, err := n.fetchMiss(key, req)
		return flightReply{resp, resp != nil && httpmsg.Shareable(req, resp.Status, resp.Header)}, err
	})
	resp = reply.resp
	switch {
	case joined && err == nil && !reply.shareable:
		return n.fetchMiss(key, req)
	case joined:
		n.coalesced.Add(1)
	}
	if shared && reply.shareable {
		// Each pipeline may change the response it is handed, so callers of
		// a shared flight get their own clones: own headers, and the one body
		// read-only until a script's first touch copies it (Materialize). A
		// leader nobody joined is the sole owner and skips the clone.
		resp = resp.Clone()
	}
	return resp, err
}

// flightReply is what a flight's leader hands its joiners: its reply, and
// whether they may have it.
type flightReply struct {
	resp      *httpmsg.Response
	shareable bool
}

// invalidate drops this node's copies of the URI a request with an unsafe
// method changed (RFC 9111 §4.4) — the responses stored for GET and HEAD of
// it, in memory and on disk, and its large-object copy — and withdraws their
// entries from the cooperative index.
func (n *Node) invalidate(req *httpmsg.Request) {
	target := strings.TrimPrefix(req.CacheKey(), req.Method+" ")
	for _, key := range []string{http.MethodGet + " " + target, http.MethodHead + " " + target} {
		n.cache.Invalidate(key)
		if n.overlay != nil {
			n.overlay.Unpublish(key)
		}
	}
	if n.lob != nil {
		n.lob.DeleteManifest(http.MethodGet + " " + target)
	}
}

// flightKey names the flight a miss joins: the cache key plus the request
// headers that select which response the origin sends and that are forwarded
// to it. Identical requests still coalesce; a plain GET never joins a flight
// whose leader will come back with a 206 or a 304.
func flightKey(key string, h httpmsg.Header) string {
	rng, inm, ims := h.Get("Range"), h.Get("If-None-Match"), h.Get("If-Modified-Since")
	if rng == "" && inm == "" && ims == "" {
		return key
	}
	return key + "\n" + rng + "\n" + inm + "\n" + ims
}

// lookup is the flight leader's first step, in both object models: a fresh
// copy from the whole-body cache, else a lazy stream of the large-object
// tier's fresh manifest, whose segments resolve as the client reads; or else
// the stale copy a tier keeps for its validators (cache.Stale), the
// whole-body cache's before the tier's. A previous flight may have stored
// the key since the request's own lookup in fetchWithCache, which reads the
// same tiers without reporting a stale copy. The leader's response may go to
// every caller of the flight, which outlive its request, so it is looked up
// without the request: its body is a fresh copy, and nothing in it is lent
// (httpmsg.Reuse). The leader alone revalidates a stale copy (revalidate).
func (n *Node) lookup(key string) (*httpmsg.Response, cache.Stale) {
	resp, stale := n.cache.Lookup(key)
	if resp == nil {
		var lob cache.Stale
		if resp, lob = n.lobServe(key); stale.Tier == "" {
			stale = lob
		}
	}
	if resp != nil {
		n.cacheHits.Add(1)
	}
	return resp, stale
}

// fetchMiss is the flight leader's pass through the rest of the chain. A
// stale copy is revalidated on the leader's own request unless that request
// carries a precondition of its own; a copy the origin's 304 does not renew
// is gone, and the request goes on as a miss.
func (n *Node) fetchMiss(key string, req *httpmsg.Request) (*httpmsg.Response, error) {
	resp, stale := n.lookup(key)
	if resp != nil {
		return resp, nil
	}
	if stale.Tier != "" && req.Header.Get("If-None-Match") == "" && req.Header.Get("If-Modified-Since") == "" {
		if resp, err := n.revalidate(key, req, stale); resp != nil || err != nil {
			return resp, err
		}
	}
	if resp := n.peerCopy(key); resp != nil {
		n.peerHits.Add(1)
		return resp, nil
	}
	resp, err := n.fetchOrigin(key, req)
	if err == nil && resp.Stream == nil {
		n.storeReply(req, key, resp)
	}
	return resp, err
}

// fetchOrigin is the chain's origin step. Through the streaming path when the
// upstream supports it and the tier wants the object: a large 200 is then
// chunked into segments as it arrives, and the tier owns it. Otherwise the
// reply is buffered, for the caller to hand to the store step.
func (n *Node) fetchOrigin(key string, req *httpmsg.Request) (*httpmsg.Response, error) {
	n.originFetches.Add(1)
	resp, err := n.lobStreamOrigin(key, req)
	if resp == nil && err == nil {
		resp, err = n.cfg.Upstream.Do(req)
	}
	return resp, err
}

// The labels of nakika_cache_revalidations_total: the tier that kept the
// stale copy (cache.Stale.Tier), and how its conditional request ended.
var (
	revalTiers   = [...]string{"memory", "disk", "lob"}
	revalResults = [...]string{"not_modified", "refused", "replaced", "failed", "stale_served"}
)

// revalidate is the chain's step for a stale copy: the leader's origin
// request goes out conditional on the copy's validators (If-None-Match, else
// If-Modified-Since), through the origin step like any other. It asks for the
// whole object: a Range is cut from the copy at the edge, as from a hit.
//
//   - A 304 the one 304 rule renews the copy by (renew) serves the renewed
//     copy, and no body is fetched. A 304 that names no validator (Python's
//     http.server sends one) is taken to name the one the request sent.
//   - A refused 304 drops the copy from every tier; revalidate returns nil and
//     the caller fetches unconditionally.
//   - A 200 replaces the copy: the copy is dropped, and the 200 is filed by
//     the store step (a streamed one has replaced the tier's manifest
//     already).
//   - No reply, or a 500, 502, 503 or 504, serves the copy stale while the
//     one stale rule allows it (staleCopy); else the error is returned, and
//     the copy is kept.
//   - Any other reply is served and filed as usual.
func (n *Node) revalidate(key string, req *httpmsg.Request, stale cache.Stale) (*httpmsg.Response, error) {
	result := "failed"
	defer func() {
		n.revalidations[slices.Index(revalTiers[:], stale.Tier)][slices.Index(revalResults[:], result)].Add(1)
	}()
	validator, precondition := "Etag", "If-None-Match"
	if stale.Header.Get(validator) == "" {
		validator, precondition = "Last-Modified", "If-Modified-Since"
	}
	cond := req.Clone()
	cond.Header.Del("Range")
	cond.Header.Set(precondition, stale.Header.Get(validator))
	resp, err := n.fetchOrigin(key, cond)
	if err != nil || resp.Status == 500 || resp.Status >= 502 && resp.Status <= 504 {
		if served := n.staleCopy(key, stale); served != nil {
			result = "stale_served"
			return served, nil
		}
		if err != nil {
			return nil, err
		}
	}
	switch resp.Status {
	case http.StatusNotModified:
		if resp.Header.Get("Etag") == "" && resp.Header.Get("Last-Modified") == "" {
			// A 304 that names no validator answers the one this request
			// sent (RFC 9110 §13.1), so it selects the copy.
			resp.Header.Set(validator, stale.Header.Get(validator))
		}
		if renewed := n.renew(key, resp); renewed != nil {
			result = "not_modified"
			return renewed, nil
		}
		result = "refused"
		n.dropCopies(key, true)
		return nil, nil
	case http.StatusOK:
		result = "replaced"
		n.dropCopies(key, resp.Stream == nil)
	}
	if resp.Stream == nil {
		n.storeReply(cond, key, resp)
	}
	return resp, nil
}

// staleCopy serves the copy stale names past its expiry, when the one stale
// rule (cache.ServesStale) lets it outlive a failed revalidation: a whole
// body, which Lookup left in memory, or the manifest as its stream. It is
// marked Stale, and nil when the rule refuses or the copy has gone.
func (n *Node) staleCopy(key string, stale cache.Stale) *httpmsg.Response {
	if !cache.ServesStale(stale.Header, stale.Expires, n.clock()) {
		return nil
	}
	var resp *httpmsg.Response
	if stale.Tier != "lob" {
		resp = n.cache.GetStale(key)
	} else if m, ok := n.lob.Manifest(key); ok {
		resp = n.lobStream(nil, m)
	}
	if resp != nil {
		resp.Stale = true
	}
	return resp
}

// dropCopies drops key's copies from both whole-body tiers, and with lob its
// large-object manifest too.
func (n *Node) dropCopies(key string, lob bool) {
	n.cache.Invalidate(key)
	if n.lob != nil && lob {
		n.lob.DeleteManifest(key)
	}
}

// renew applies a 304 to key's stored copy by the one 304 rule (cache.Renew):
// a whole body, in memory or on disk, through Cache.Refresh, else a manifest
// through Tier.RefreshManifest. It returns the renewed copy to serve, which is
// announced again, or nil when the 304 renewed nothing.
func (n *Node) renew(key string, nm *httpmsg.Response) *httpmsg.Response {
	resp := n.cache.Refresh(key, nm)
	if resp == nil {
		resp = n.lobRenew(key, nm)
	}
	if resp != nil {
		n.publish(key)
	}
	return resp
}

// peerCopy is the chain's peer step: ask the overlay who holds a copy of key
// and fetch it from the first holder that answers. A whole body is stored
// until the holder's expiry and announced. A large object's manifest is
// adopted and streamed: its segments come from the holders as the client
// reads, or from the origin by Range.
func (n *Node) peerCopy(key string) *httpmsg.Response {
	if n.overlay == nil || n.tr == nil {
		return nil
	}
	holders := n.overlay.Locate(key)
	for _, holder := range holders {
		if holder == n.cfg.Name {
			continue
		}
		reply, err := n.call(holder, transport.Message{Type: msgCacheGet, Key: key})
		if err != nil || len(reply.Args) == 0 {
			continue
		}
		switch reply.Args[0] {
		case "hit":
			resp, expires := n.peerBody(reply)
			if resp == nil {
				continue
			}
			resp.Via = holder
			if n.cache.PutUntil(key, resp, expires) {
				n.publish(key)
			}
			return resp
		case "manifest":
			if resp := n.lobAdopt(key, reply.Body); resp != nil {
				return resp
			}
		}
	}
	return nil
}

// storeReply is the chain's last step: it files one buffered origin reply to
// req where it belongs. A 304 renews the stored copy it validates (renew) and
// is never cached as a body; a shareable 200 at or above the large-object
// threshold is chunked into the tier (later requests stream it); anything else
// shareable goes to the whole-body cache; the rest is filed nowhere. The
// caller still serves the reply it has in hand.
func (n *Node) storeReply(req *httpmsg.Request, key string, resp *httpmsg.Response) {
	if resp.Status == http.StatusNotModified {
		n.renew(key, resp)
		return
	}
	if !httpmsg.Shareable(req, resp.Status, resp.Header) {
		return
	}
	if expires, ok := n.lobTakes(req, key, resp.Status, resp.Header, int64(len(resp.Body))); ok {
		if _, err := n.lob.Ingest(key, resp.Status, resp.Header, expires, resp.Body); err == nil {
			n.lobWhole.Add(1)
			n.publish(key)
			return
		}
	}
	if n.cache.Put(key, resp) && resp.Status == http.StatusOK {
		// Only successful responses are announced in the cooperative index;
		// error responses stay in the local cache only.
		n.publish(key)
	}
}

// lobTakes reports whether the tier is the one to hold the object, with the
// copy's expiry (cache.Expiry from now): the tier is on, and the reply is a
// 200 to a GET req, shareable (httpmsg.Shareable), at least
// LargeObjectThreshold bytes long and Kept (cache.Kept). length is the body's
// length when it is buffered, the declared Content-Length (-1 unknown) when it
// is about to stream.
func (n *Node) lobTakes(req *httpmsg.Request, key string, status int, h httpmsg.Header, length int64) (time.Time, bool) {
	if n.lob == nil || status != http.StatusOK || length < n.cfg.LargeObjectThreshold ||
		!strings.HasPrefix(key, http.MethodGet+" ") || !httpmsg.Shareable(req, status, h) {
		return time.Time{}, false
	}
	now := n.clock()
	expires := n.cache.Expiry(h, now)
	return expires, cache.Kept(h, expires, now)
}

// publish announces this node's copy of key in the cooperative index, with
// the copy's expiry (copyUntil).
func (n *Node) publish(key string) {
	if n.overlay == nil {
		return
	}
	// Publication failures are not fatal — the local cache still has the
	// copy — but under partitions they would silently shrink the
	// cooperative index, so failed publishes are remembered and retried by
	// Maintain after the network heals.
	if _, err := n.overlay.Publish(key); err != nil {
		n.pubMu.Lock()
		n.pendingPub[key] = struct{}{}
		n.pubMu.Unlock()
	}
}

// copyUntil is the overlay's view of this node's copies (overlay.Node's
// SetCopies): a whole body until the cache's expiry for it, or a complete,
// fresh large-object copy until its manifest's.
func (n *Node) copyUntil(key string) (time.Time, bool) {
	if expires, ok := n.cache.Until(key); ok {
		return expires, true
	}
	t := n.lob
	if t == nil {
		return time.Time{}, false
	}
	m, ok := t.Manifest(key)
	if !ok || !m.Complete() {
		return time.Time{}, false
	}
	return m.Expires, !n.lobStale(m)
}

// stageExpiry is the loader's Expiry: a stage expires with the fetch
// chain's copy of its script (copyUntil), so a script a second site loads
// from the cache keeps the copy's remaining lifetime instead of a new one;
// a reply no tier kept fresh expires by its header from now.
func (n *Node) stageExpiry(req *httpmsg.Request, h httpmsg.Header, now time.Time) time.Time {
	if until, ok := n.copyUntil(req.CacheKey()); ok {
		return until
	}
	return n.cache.Expiry(h, now)
}

// republishPending retries overlay publishes that failed while the index
// owner was unreachable. A key whose copy has since left the cache or the
// large-object tier announces nothing, and is dropped with the rest.
func (n *Node) republishPending() {
	if n.overlay == nil {
		return
	}
	n.pubMu.Lock()
	keys := make([]string, 0, len(n.pendingPub))
	for k := range n.pendingPub {
		keys = append(keys, k)
	}
	n.pubMu.Unlock()
	for _, key := range keys {
		if _, err := n.overlay.Publish(key); err == nil {
			n.pubMu.Lock()
			delete(n.pendingPub, key)
			n.pubMu.Unlock()
		}
	}
}

// publishesPending counts the publishes awaiting a retry.
func (n *Node) publishesPending() int {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	return len(n.pendingPub)
}

// ---------------------------------------------------------------------------
// Peer RPC: the cooperative-cache fetch
// ---------------------------------------------------------------------------

// msgCacheGet is the one peer fetch, for both object kinds.
const msgCacheGet = "cache.get"

// peerBody decodes a whole-body "hit" reply into the copy and the instant the
// holder's copy expires; a nil response means the reply is not in this
// build's format. A copy must not outlive the holder's, so the expiry travels
// with it.
func (n *Node) peerBody(reply transport.Message) (*httpmsg.Response, time.Time) {
	if len(reply.Args) < 2 {
		return nil, time.Time{}
	}
	ns, err := strconv.ParseInt(reply.Args[1], 10, 64)
	if err != nil {
		return nil, time.Time{}
	}
	resp, err := httpmsg.DecodeResponse(reply.Body)
	if err != nil {
		return nil, time.Time{}
	}
	return resp, time.Unix(0, ns)
}

// serveCacheRPC answers peers' cooperative-cache fetches.
//
//   - "cache.get key" answers a whole-body copy with "hit", the copy's expiry
//     in Unix nanoseconds and the response in the httpmsg binary codec; a
//     fresh, complete large-object copy with "manifest" and its manifest
//     (encodeManifest); anything else with "miss".
//   - "cache.get key ord" answers segment ord of the large-object copy with
//     "hit" and the segment's bytes, or "miss".
func (n *Node) serveCacheRPC(from string, msg transport.Message) (transport.Message, error) {
	if msg.Type != msgCacheGet {
		return transport.Message{}, fmt.Errorf("core: unknown cache message %q", msg.Type)
	}
	miss := transport.Message{Args: []string{"miss"}}
	if len(msg.Args) > 0 {
		data, ok := n.lobSegment(msg.Key, msg.Args[0])
		if !ok {
			return miss, nil
		}
		return transport.Message{Args: []string{"hit"}, Body: data}, nil
	}
	if body, expires, ok := n.cache.Encoded(msg.Key); ok {
		return transport.Message{Args: []string{"hit", strconv.FormatInt(expires.UnixNano(), 10)}, Body: body}, nil
	}
	if n.lob != nil {
		if m, ok := n.lob.Manifest(msg.Key); ok && m.Complete() && !n.lobStale(m) {
			return transport.Message{Args: []string{"manifest"}, Body: encodeManifest(m)}, nil
		}
	}
	return miss, nil
}
