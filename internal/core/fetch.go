package core

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/transport"
)

// This file is the node's fetch path, one explicit chain that the whole-body
// cache and the large-object tier both hang off:
//
//	lookup → coalesce → peer → origin → store
//
// Four decisions are taken on the way, each written once: whether a shared
// cache may store a response (httpmsg.Storable), until when it is fresh
// (cache.Expiry, against the node clock), how concurrent misses coalesce
// (cache.Group) and where an origin reply is filed (storeReply). The
// large-object half of each step lives in largeobject.go.

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
	key := req.CacheKey()
	if resp := n.lookup(key, false); resp != nil {
		return resp, nil
	}
	// Coalesce: concurrent misses of one request share a single pass through
	// the rest of the chain, so a cold-cache stampede costs one upstream
	// request instead of N.
	resp, joined, shared, err := n.flights.Do(flightKey(key, req.Header), func() (*httpmsg.Response, error) {
		return n.fetchMiss(key, req)
	})
	if joined {
		n.coalesced.Add(1)
	}
	if shared && resp != nil {
		// Each pipeline may change the response it is handed, so callers of
		// a shared flight get their own clones: own headers, and the one body
		// read-only until a script's first touch copies it (Materialize). A
		// leader nobody joined is the sole owner and skips the clone.
		resp = resp.Clone()
	}
	return resp, err
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
	if t := n.lobTier(); t != nil {
		t.DeleteManifest(http.MethodGet + " " + target)
	}
}

// flightKey names the flight a miss joins: the cache key plus the request
// headers that select which response the origin sends and that are forwarded
// to it. Identical requests still coalesce; a plain GET never joins a flight
// whose leader will come back with a 206 or a 304.
func flightKey(key string, h http.Header) string {
	rng, inm, ims := h.Get("Range"), h.Get("If-None-Match"), h.Get("If-Modified-Since")
	if rng == "" && inm == "" && ims == "" {
		return key
	}
	return key + "\n" + rng + "\n" + inm + "\n" + ims
}

// lookup is the chain's first step: the whole-body cache, then the
// large-object tier, where a fresh manifest serves a lazy stream whose
// segments resolve as the client reads. It runs twice per miss: before the
// flight, and again by the flight's leader (a previous flight may have
// stored the key in between), who alone revalidates a stale manifest.
func (n *Node) lookup(key string, leader bool) *httpmsg.Response {
	resp := n.cache.Get(key)
	if resp == nil {
		resp = n.lobServe(key, leader)
	}
	if resp != nil {
		n.cacheHits.Add(1)
	}
	return resp
}

// fetchMiss is the flight leader's pass through the rest of the chain.
func (n *Node) fetchMiss(key string, req *httpmsg.Request) (*httpmsg.Response, error) {
	if resp := n.lookup(key, true); resp != nil {
		return resp, nil
	}
	if resp := n.peerCopy(key); resp != nil {
		n.peerHits.Add(1)
		return resp, nil
	}
	n.originFetches.Add(1)
	// Through the streaming path when the upstream supports it and the tier
	// wants the object: a large 200 is then chunked into segments as it
	// arrives, and the tier owns it. Otherwise the reply is buffered.
	resp, err := n.lobStreamOrigin(key, req)
	if resp == nil && err == nil {
		resp, err = n.cfg.Upstream.Do(req)
	}
	if err != nil {
		return nil, err
	}
	if resp.Stream == nil {
		n.storeReply(key, resp)
	}
	return resp, nil
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

// storeReply is the chain's last step: it files one buffered origin reply
// where it belongs. A 304 renews the stored 200 it validates and is never
// cached as a body; a storable 200 at or above the large-object threshold is
// chunked into the tier (later requests stream it); anything else storable
// goes to the whole-body cache; the rest is filed nowhere. The caller still
// serves the reply it has in hand.
func (n *Node) storeReply(key string, resp *httpmsg.Response) {
	if resp.Status == http.StatusNotModified {
		n.cache.Refresh(key, resp)
		return
	}
	if t := n.lobTakes(key, resp.Status, resp.Header, int64(len(resp.Body))); t != nil {
		if _, err := t.IngestBody(key, resp.Status, resp.Header, n.clock(), resp.Body); err == nil {
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

// lobTakes returns the tier when it is the one to hold the object: the tier
// is on, and the reply is a 200 to a GET, storable by a shared cache, and at
// least LargeObjectThreshold bytes long. length is the body's length when it
// is buffered, the declared Content-Length (-1 unknown) when it is about to
// stream. A reply that is stale on arrival is never served from the copy, so
// it is taken only for what a conditional request can save: when it carries a
// validator.
func (n *Node) lobTakes(key string, status int, h http.Header, length int64) *largeobject.Tier {
	t := n.lobTier()
	if t == nil || status != http.StatusOK || length < n.cfg.LargeObjectThreshold ||
		!strings.HasPrefix(key, http.MethodGet+" ") || !httpmsg.Storable(status, h) {
		return nil
	}
	if n.cache.Stale(h, n.clock()) && h.Get("Etag") == "" && h.Get("Last-Modified") == "" {
		return nil
	}
	return t
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
// fresh large-object copy until the cache.Expiry of its manifest.
func (n *Node) copyUntil(key string) (time.Time, bool) {
	if expires, ok := n.cache.Until(key); ok {
		return expires, true
	}
	t := n.lobTier()
	if t == nil {
		return time.Time{}, false
	}
	m, ok := t.Manifest(key)
	if !ok || !m.Complete() {
		return time.Time{}, false
	}
	expires := n.cache.Expiry(m.Header, m.Fetched)
	return expires, expires.After(n.clock())
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
// holder's copy expires; a nil response means the reply does not decode. A
// copy must not outlive the holder's, so the expiry travels with it. A reply
// without one (a peer running an older build) starts a new lifetime from now.
func (n *Node) peerBody(reply transport.Message) (*httpmsg.Response, time.Time) {
	resp, err := httpmsg.DecodeResponse(reply.Body)
	if err != nil {
		return nil, time.Time{}
	}
	if len(reply.Args) > 1 {
		if ns, err := strconv.ParseInt(reply.Args[1], 10, 64); err == nil {
			return resp, time.Unix(0, ns)
		}
	}
	return resp, n.cache.Expiry(resp.Header, n.clock())
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
	if resp, expires := n.cache.GetUntil(msg.Key); resp != nil {
		return transport.Message{
			Args: []string{"hit", strconv.FormatInt(expires.UnixNano(), 10)},
			Body: httpmsg.EncodeResponse(resp),
		}, nil
	}
	if t := n.lobTier(); t != nil {
		if m, ok := t.Manifest(msg.Key); ok && m.Complete() && !n.lobStale(m) {
			return transport.Message{Args: []string{"manifest"}, Body: encodeManifest(m)}, nil
		}
	}
	return miss, nil
}
