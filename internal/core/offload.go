package core

import (
	"fmt"
	"strconv"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/loadview"
	"nakika/internal/pipeline"
	"nakika/internal/transport"
)

// Load-aware request offload. Every node meters its own load as a cheap
// exponentially-decayed score — in-flight requests plus recently completed
// work, weighted by the resource controller's CPU congestion share — and
// gossips the score for free on the overlay's existing maintenance pings
// (see overlay.SetLoadGossip), so each node holds a fresh load view of its
// successors and predecessor. Offload replies refresh the view too, which
// is what keeps it current for the peers that matter mid-burst.
//
// When a request arrives at a node whose score exceeds OffloadThreshold,
// the node forwards the whole request over the transport to the
// least-loaded member of the site's replica set — the ring owner of the
// site name and its next successors, i.e. the nodes that hold (or, for a
// site going hot, are about to hold) the site's cooperative-cache entries
// and hard-state partitions — and returns that node's response. Three
// rules keep this from melting down: a forward must target a node whose
// viewed load is strictly below the sender's (no ping-pong between two hot
// nodes), a request carries a forwarding depth that is capped (a request
// caught in a universally hot or partitioned cluster executes locally at
// the cap), and any transit failure falls back to local execution (a
// partition can cost a request one failed hop, never strand or loop it).

// msgOffExec asks a peer to execute a full proxied request on the caller's
// behalf (the "off." prefix is what transport.Mux routes on). Args[0] is
// the forwarding depth, Args[1] the sender's load score; the reply carries
// the replier's post-execution load score in Args[0] and the name of the
// node that ultimately executed in Args[1].
const msgOffExec = "off.exec"

// offloadMaxDepth caps how many times one request may be forwarded before
// the holder must execute it locally (loop prevention under partitions and
// universally hot clusters).
const offloadMaxDepth = 2

// call sends one RPC to a peer through the node's transport, folding the
// measured round trip into the per-peer RTT EWMA that hedge budgets are
// compared against. Only completed round trips train the estimate — a
// delivery failure says the peer is unreachable, not fast. The wall clock's
// readings carry Go's monotonic reading, so an NTP step during an RPC cannot
// corrupt the estimate.
func (n *Node) call(to string, msg transport.Message) (transport.Message, error) {
	start := n.clock()
	reply, err := n.tr.Call(n.cfg.Name, to, msg)
	if err == nil || transport.IsRemote(err) {
		n.rtts.Observe(to, n.clock().Sub(start))
	}
	return reply, err
}

// sendAhead is a transport that writes a call's request before the caller
// waits for its reply (transport.TCP's Go).
type sendAhead interface {
	Go(from, to string, msg transport.Message) (wait func() (transport.Message, error))
}

// pendingCall is one call to a peer between send and collect.
type pendingCall struct {
	to    string
	msg   transport.Message
	start time.Time
	wait  func() (transport.Message, error) // nil: collect makes the whole call
}

// send starts one call to a peer. On a transport that sends ahead the
// request is on the wire before send returns, so the caller can overlap its
// own work with the round trip; on any other the whole call runs in
// collect, exactly as call.
func (n *Node) send(to string, msg transport.Message) pendingCall {
	p := pendingCall{to: to, msg: msg}
	if ahead, ok := n.tr.(sendAhead); ok {
		p.start = n.clock()
		p.wait = ahead.Go(n.cfg.Name, to, msg)
	}
	return p
}

// collect waits for a sent call's reply, which feeds the peer's RTT
// estimate as call's does. A sent-ahead sample runs from the send to
// collect's return, so it includes whatever the caller did meanwhile that
// outlasted the reply.
func (n *Node) collect(p pendingCall) (transport.Message, error) {
	if p.wait == nil {
		return n.call(p.to, p.msg)
	}
	reply, err := p.wait()
	if err == nil || transport.IsRemote(err) {
		n.rtts.Observe(p.to, n.clock().Sub(p.start))
	}
	return reply, err
}

// offloadEnabled reports whether the load-shedding layer is active.
func (n *Node) offloadEnabled() bool {
	return n.cfg.OffloadThreshold > 0 && n.tr != nil && n.overlay != nil
}

// offloadCandidates returns the execution replica set of the site: the
// ring owner of the site name, the successors that replicate its hard
// state, plus the next routed successor (the node repair would promote
// first on churn — it is about to hold the site's state anyway), excluding
// this node. Shedding inside this set concentrates the site's soft state
// instead of smearing it over the ring.
//
// The set is cached per site and invalidated by the overlay churn hook: a
// node over its threshold is exactly the node that cannot afford a burst
// of ring lookups per arriving request, and between churn events the set
// is stable. A stale set merely misroutes one forward, which falls back
// to local execution.
func (n *Node) offloadCandidates(site string) []string {
	gen := n.candGen.Load()
	n.candMu.Lock()
	if n.candMapGen != gen || n.cands == nil {
		// Churn invalidated the cache: drop it whole, so superseded entries
		// never linger.
		n.cands = make(map[string][]string)
		n.candMapGen = gen
	}
	if names, ok := n.cands[site]; ok {
		n.candMu.Unlock()
		return names
	}
	n.candMu.Unlock()

	fanout := n.repFactor
	if fanout < 3 {
		fanout = 3
	}
	fanout++
	avoid := make(map[string]bool)
	var out []string
	for len(avoid) < fanout {
		owner, err := n.overlay.LookupNameAvoid(site, avoid)
		if err != nil {
			break
		}
		avoid[owner] = true
		if owner != n.cfg.Name {
			out = append(out, owner)
		}
	}
	n.candMu.Lock()
	if n.candMapGen == gen {
		// The site key comes from the client-controlled Host header, so the
		// cache must stay bounded: a long-tail sweep resets it rather than
		// growing it without limit.
		if len(n.cands) >= maxCandCacheEntries {
			n.cands = make(map[string][]string)
		}
		n.cands[site] = out
	}
	n.candMu.Unlock()
	return out
}

// maxCandCacheEntries bounds the per-site candidate cache (entries are a
// few strings each; the bound exists because site keys are
// client-controlled Host headers).
const maxCandCacheEntries = 4096

// refreshRTTs re-probes every peer whose round-trip estimate exceeds the
// hedge budget. A peer that turned slow stops being contacted by the hedged
// read path, so on a read-heavy workload nothing would ever retrain its
// estimate downward once the slowness passes — reads would hedge to one
// replica forever. Maintain calls this so recovery is noticed at
// maintenance cadence without taxing any read. The probe is a plain overlay
// ping issued through the RTT-observing call path.
func (n *Node) refreshRTTs() {
	if n.cfg.HedgeAfter <= 0 || n.tr == nil {
		return
	}
	for _, peer := range n.rtts.Slow(n.cfg.HedgeAfter) {
		// A recovered peer's estimate converges below the budget within a
		// few cheap pings; a still-slow peer pays a handful of real round
		// trips and stays hedged-around.
		for i := 0; i < 8; i++ {
			if d, ok := n.rtts.Expect(peer); !ok || d <= n.cfg.HedgeAfter {
				break
			}
			if _, err := n.call(peer, transport.Message{Type: "ov.ping"}); err != nil {
				break
			}
		}
	}
}

// shedRequest decides whether to offload req and, when it does, executes
// it remotely. It returns shed=false when the request should run locally:
// the node is under threshold, the depth cap was reached, no candidate
// looks strictly less loaded, or the forward failed in transit (the
// partition fallback). shed=true with a non-nil err reports a remote
// execution failure — the peer ran (or refused) the request, so rerunning
// it locally could double the pipeline's side effects.
func (n *Node) shedRequest(req *httpmsg.Request, depth int) (resp *httpmsg.Response, executor string, err error, shed bool) {
	if !n.offloadEnabled() {
		return nil, "", nil, false
	}
	local := n.meter.Score()
	if local <= n.cfg.OffloadThreshold {
		return nil, "", nil, false
	}
	if depth >= offloadMaxDepth {
		n.offDepthCap.Add(1)
		return nil, "", nil, false
	}
	candidates := n.offloadCandidates(req.SiteKey())
	if len(candidates) == 0 {
		return nil, "", nil, false
	}
	target, viewScore, ok := n.view.LeastLoaded(candidates)
	if !ok || viewScore >= local {
		return nil, "", nil, false
	}
	body := encodeOffloadRequest(req)
	reply, callErr := n.call(target, transport.Message{
		Type: msgOffExec,
		Key:  req.SiteKey(),
		Args: []string{strconv.Itoa(depth + 1), loadview.FormatScore(local)},
		Body: body,
		// The request's trace id travels with the forward, so the peer's
		// execution sample shares it with the ingress node's.
		Trace: req.TraceID,
	})
	if callErr != nil {
		if transport.IsRemote(callErr) {
			n.offFwdOut.Add(1)
			return nil, target, callErr, true
		}
		n.offFallback.Add(1)
		return nil, "", nil, false
	}
	if len(reply.Args) >= 1 {
		if s, ok := loadview.ParseScore(reply.Args[0]); ok {
			n.view.Observe(target, s)
		}
	}
	executor = target
	if len(reply.Args) >= 2 && reply.Args[1] != "" {
		executor = reply.Args[1]
	}
	out, decErr := httpmsg.DecodeResponse(reply.Body)
	if decErr != nil {
		// The peer did execute the request — a local rerun could double the
		// pipeline's side effects, so a corrupt reply is an error, not a
		// fallback (same rule as the remote-error branch above).
		n.offFwdOut.Add(1)
		return nil, executor, fmt.Errorf("core: offload reply from %s: %w", target, decErr), true
	}
	n.offFwdOut.Add(1)
	return out, executor, nil, true
}

// serveOffloadRPC executes requests peers shed to this node. A holder that
// is itself over threshold may shed once more (the depth travels with the
// request), but at the depth cap it must execute locally — that is what
// bounds a request's worst case to offloadMaxDepth forwards plus one execution.
func (n *Node) serveOffloadRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgOffExec:
		n.offRecvIn.Add(1)
		depth := 0
		if len(msg.Args) >= 1 {
			if d, err := strconv.Atoi(msg.Args[0]); err == nil && d > 0 {
				depth = d
			}
		}
		if len(msg.Args) >= 2 {
			if s, ok := loadview.ParseScore(msg.Args[1]); ok {
				n.view.Observe(from, s)
			}
		}
		req, err := decodeOffloadRequest(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		// Adopt the sender's trace id (zero when the sender is untraced):
		// this node's execution joins the same cross-node trace.
		req.TraceID = msg.Trace
		resp, who, err, shed := n.shedRequest(req, depth)
		var trace *pipeline.Trace
		if !shed {
			resp, trace, err = n.handleLocal(req)
			who = n.cfg.Name
		}
		if err != nil {
			return transport.Message{}, err
		}
		reply := transport.Message{Args: []string{loadview.FormatScore(n.meter.Score()), who}, Body: httpmsg.EncodeResponse(resp)}
		// Recycle the staged request once the reply is encoded, unless a
		// script handler saw it (same rule as the client port's respond).
		if trace == nil || !trace.RanHandlers() {
			req.Release()
		}
		return reply, nil
	default:
		return transport.Message{}, fmt.Errorf("core: unknown offload message %q", msg.Type)
	}
}
