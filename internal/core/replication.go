package core

import (
	"fmt"
	"sort"
	"strconv"

	"nakika/internal/overlay"
	"nakika/internal/state"
	"nakika/internal/store"
	"nakika/internal/trace"
	"nakika/internal/transport"
)

// Successor-list replication of hard state. Every (site, key) pair hashes
// to a position on the overlay ring via state.ReplicaKey; the node owning
// that position accepts the pair's writes and synchronously pushes each
// accepted record to its ReplicationFactor-1 successors, so the pair stays
// readable through the deaths of up to ReplicationFactor-1 consecutive
// nodes. Writes and reads issued at any node are forwarded to the owner;
// when the owner is unreachable they fail over, in successor order, to the
// first live replica, which acts as owner (accepting writes, serving
// reads) until routing converges. Records are versioned (see
// state.Rec) so replication pushes, churn handoff streams, and repair
// passes are all idempotent last-writer-wins applies.
//
// Acknowledgement rule: an acting owner acknowledges a write once it is
// durable locally AND at least one replica accepted it (a replica answers
// "applied" only once the record is durable there) — unless the node's
// successor list is empty (no ring, a ring of one, or K=1), in which case
// local durability is all that exists and the write degrades gracefully to
// local-only. A node whose replica pushes all fail (it crashed mid-write,
// or it is partitioned from every successor) returns an error instead of
// acknowledging: the write may exist locally but was never promised to
// survive this node.
//
// Every operation on a replicated record — state puts, deletes and reads,
// lease arbitration, fenced writes, deployment records, large-object
// indexes — takes the one path written here: route finds the acting owner
// and runs the operation there, ownerWrite admits the result on the owner,
// sends it to the replicas with sendPushes, makes it durable locally while
// the pushes are in flight and gathers their replies with collectPushes,
// and applyPush stores it at each replica. The record types are callers of
// that path, not copies of it. The path is the same on every node: one
// without a ring owns every record, so route runs the operation locally and
// ownerWrite has no replica to push to.

// Replication message types (the "rep." prefix is what transport.Mux
// routes on).
const (
	msgRepPut   = "rep.put"   // forward a client put to the (acting) owner
	msgRepDel   = "rep.del"   // forward a client delete to the (acting) owner
	msgRepGet   = "rep.get"   // read a record from the (acting) owner or a replica
	msgRepStore = "rep.store" // owner → replica push of one versioned record
	msgRepRange = "rep.range" // handoff: stream a key range, chunked
	msgRepKeys  = "rep.keys"  // list a site's live keys held locally (for scatter enumeration)
)

// repForward is the body of rep.put / rep.del / rep.get.
type repForward struct {
	Site, Key, Value string
}

// repRangeReq asks for the versioned records whose replica-key hash lies
// in the ring interval (From, To], in (hash, key) order, starting strictly
// after the After cursor, at most Limit records.
type repRangeReq struct {
	From, To uint64
	After    string // replica-key cursor ("" = start)
	Limit    int
}

// repRangeResp is one handoff chunk; More reports records remaining past
// the last one returned.
type repRangeResp struct {
	Recs []state.Rec
	More bool
}

// repEnabled reports whether successor-list replication is active: it
// needs the overlay for placement and the transport for pushes (NewNode
// resolves the factor only when it has both).
func (n *Node) repEnabled() bool {
	return n.overlay != nil && n.tr != nil && n.repFactor >= 1
}

// replicaTargets returns the successors this node pushes replicas to: the
// first ReplicationFactor-1 distinct successor names. The list reflects
// the node's current view: a dead member not yet suspected costs a failed
// push, a live one wrongly suspected costs a replica until repair.
func (n *Node) replicaTargets() []string {
	if n.repFactor <= 1 {
		return nil
	}
	var out []string
	for _, s := range n.overlay.Successors() {
		if s == "" || s == n.cfg.Name {
			continue
		}
		out = append(out, s)
		if len(out) >= n.repFactor-1 {
			break
		}
	}
	return out
}

// resolveActingOwner finds the node currently responsible for rk: the
// routed owner, or — when that node does not answer a ping — the first
// live successor, probing through at most the replica set. probe lets
// repair passes cache liveness across many keys; nil probes every
// candidate fresh.
func (n *Node) resolveActingOwner(rk string, probe func(string) bool) (string, error) {
	if probe == nil {
		probe = n.overlay.Ping
	}
	avoid := make(map[string]bool)
	for attempt := 0; attempt < n.repFactor+1; attempt++ {
		owner, err := n.overlay.LookupNameAvoid(rk, avoid)
		if err != nil {
			return "", err
		}
		if owner == n.cfg.Name || probe(owner) {
			return owner, nil
		}
		avoid[owner] = true
	}
	return "", fmt.Errorf("core: no live owner for %q", rk)
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

// route carries one operation on the record (site, key) to the pair's
// acting owner: local runs it when that is this node — always on a node
// without peers, which owns every record — and a message of type typ is
// sent otherwise, its body built by body on the first send, failing over
// in successor order while the routed owner is unreachable. An owner
// that answers with an error (quota, replication failure) has given the
// operation's result, not a routing problem, so only transport failures
// move on to the next successor. The routing key is always the replica key
// of the record being read or written. via names who answered; failedOver
// reports that at least one candidate before it was unreachable. When no
// candidate answers, that error is the operation's result; for state
// gets, puts and deletes it is counted in
// nakika_replication_unavailable_total.
func (n *Node) route(act *trace.Act, site, key, typ string, body func() []byte, local func() (transport.Message, error)) (reply transport.Message, via string, failedOver bool, err error) {
	if !n.repEnabled() {
		reply, err = local()
		return reply, n.cfg.Name, false, err
	}
	rk := state.ReplicaKey(site, key)
	avoid := make(map[string]bool)
	msg := transport.Message{Type: typ}
	var lastErr error
	for attempt := 0; attempt < n.repFactor+1; attempt++ {
		owner, err := n.overlay.LookupNameAvoid(rk, avoid)
		if err != nil {
			lastErr = err
			break
		}
		if owner == n.cfg.Name {
			reply, err := local()
			return reply, owner, len(avoid) > 0, err
		}
		if msg.Body == nil {
			msg.Body = body()
		}
		reply, err := n.callT(act, owner, msg)
		if err == nil || transport.IsRemote(err) {
			return reply, owner, len(avoid) > 0, err
		}
		avoid[owner] = true
		lastErr = err
	}
	switch typ {
	case msgRepGet:
		n.unavailGet.Add(1)
	case msgRepPut:
		n.unavailPut.Add(1)
	case msgRepDel:
		n.unavailDel.Add(1)
	}
	return transport.Message{}, "", false, fmt.Errorf("core: %s %s/%s: no reachable owner: %w", typ, site, key, lastErr)
}

// replyStatus is the first argument of a reply ("hit", "applied", "stale",
// "fenced", "ok", ...), or "" when there is none.
func replyStatus(reply transport.Message) string {
	if len(reply.Args) == 0 {
		return ""
	}
	return reply.Args[0]
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

// repWrite routes one client put or delete (a versioned tombstone write)
// to the acting owner's ownerWrite.
func (n *Node) repWrite(act *trace.Act, site, key, value string, deleted bool) error {
	typ := msgRepPut
	if deleted {
		typ = msgRepDel
	}
	body := func() []byte { return encodeRepForward(repForward{Site: site, Key: key, Value: value}) }
	_, via, _, err := n.route(act, site, key, typ, body, func() (transport.Message, error) {
		return transport.Message{}, n.ownerWrite(state.Rec{Site: site, Key: key, Delete: deleted, Value: value}, nil)
	})
	if err == nil && via != n.cfg.Name {
		n.repForwarded.Add(1)
	}
	return err
}

// storeRec applies rec to the local store under last-writer-wins and
// enqueues it in the WAL: through the store's fence floor when the write
// carries a fence (a holdership the floor has deposed is ErrFenced and
// changes nothing), plainly otherwise. The caller holds repApplyMu, and
// waits for the commit only after releasing it.
func (n *Node) storeRec(rec state.Rec, fence *leaseFenced) (applied bool, c store.Commit, err error) {
	if fence == nil {
		return n.store.PutVersioned(rec)
	}
	applied, c, err = n.store.FencedPutVersioned(rec, fence.Guard, fence.Holder, fence.Token)
	if err == store.ErrFencedStale {
		err = ErrFenced
	}
	return applied, c, err
}

// storeNext applies rec locally as this node's next version above both the
// local copy and base, and returns it as stored with its pending commit.
// The apply lock covers the version, the apply and the enqueue, not the
// fsync, so the group commit can merge this write with others and with the
// pushes this node applies meanwhile.
func (n *Node) storeNext(rec state.Rec, fence *leaseFenced, base uint64) (state.Rec, store.Commit, error) {
	n.repApplyMu.Lock()
	defer n.repApplyMu.Unlock()
	if cur, _, _, _, ok := n.store.GetVersioned(rec.Site, rec.Key); ok && cur > base {
		base = cur
	}
	rec.Ver, rec.Origin = base+1, n.cfg.Name
	_, c, err := n.storeRec(rec, fence)
	return rec, c, err
}

// ownerWrite is the acting-owner mutation path: assign the next version
// and admit the record locally (against the local fence floor when the
// write carries a fence), send it to the replica targets, make it durable
// locally while the pushes are in flight, then collect the replies. With
// no targets — no ring, K=1, a ring of one — that is a local
// versioned write. A fence floor that rejects the write, here or on any
// replica it reaches, means the holdership is deposed: ErrFenced, never
// acknowledged. Nothing is pushed that the local floor refused. (After a
// replica's rejection the local copy stays — this store's own admission
// sequence is still clean — and last-writer-wins repair from the newer
// holdership's records will supersede it.)
func (n *Node) ownerWrite(rec state.Rec, fence *leaseFenced) error {
	base := uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		stored, commit, err := n.storeNext(rec, fence, base)
		if err != nil {
			return err
		}
		pushes := n.sendPushes(stored, fence)
		durable := commit.Wait()
		acks, staleVer, fenced := n.collectPushes(pushes)
		switch {
		case durable != nil:
			return durable
		case fenced:
			return ErrFenced
		case staleVer >= stored.Ver:
			// Some replica holds a record at or ahead of our version that
			// our write did not supersede (we lost history in a crash, or
			// lost a payload tie) — even if another replica acked. Without
			// a rebase, the next repair pass would spread the superseding
			// record over the just-acknowledged write, losing it to an
			// older value; so rebase above the reported version and retry
			// until the client's write wins everywhere.
			base = staleVer
		case len(pushes) == 0 || acks > 0:
			return nil
		default:
			return fmt.Errorf("core: write %s/%s durable locally but none of %d replicas acknowledged", rec.Site, rec.Key, len(pushes))
		}
	}
	return fmt.Errorf("core: write %s/%s: replicas kept superseding the write", rec.Site, rec.Key)
}

// pushMsg builds the owner → replica push of one versioned record:
// rep.store, or lease.fstore carrying the fence beside it.
func pushMsg(rec state.Rec, fence *leaseFenced) transport.Message {
	if fence == nil {
		return transport.Message{Type: msgRepStore, Body: state.EncodeRec(rec)}
	}
	body := encodeLeaseFenced(leaseFenced{Guard: fence.Guard, Holder: fence.Holder, Token: fence.Token, Rec: rec})
	return transport.Message{Type: msgLeaseFStore, Body: body}
}

// sendPushes sends rec to each of this node's replica targets, in target
// order. See send: over TCP every push is on the wire before sendPushes
// returns; elsewhere each is delivered when collectPushes reaches it.
func (n *Node) sendPushes(rec state.Rec, fence *leaseFenced) []pendingCall {
	targets := n.replicaTargets()
	if len(targets) == 0 {
		return nil
	}
	msg := pushMsg(rec, fence)
	pushes := make([]pendingCall, len(targets))
	for i, t := range targets {
		pushes[i] = n.send(t, msg)
	}
	return pushes
}

// collectPushes waits for every push's reply. It returns how many replicas
// applied the record, the newest version a replica reported when rejecting
// it as stale, and whether any replica's fence floor rejected it.
func (n *Node) collectPushes(pushes []pendingCall) (acks int, staleVer uint64, fenced bool) {
	for _, p := range pushes {
		reply, err := n.collect(p)
		if err != nil {
			continue
		}
		switch replyStatus(reply) {
		case "fenced":
			fenced = true
		case "stale":
			if len(reply.Args) >= 2 {
				if v, err := strconv.ParseUint(reply.Args[1], 10, 64); err == nil && v > staleVer {
					staleVer = v
				}
			}
		default:
			acks++
			n.repPushes.Add(1)
		}
	}
	return acks, staleVer, fenced
}

// applyPush is the replica side of a push (and of a handoff record): store
// rec under last-writer-wins, through the fence when it carries one, and
// answer "applied" once it is durable, "stale <version held> <its origin>"
// or "fenced". The apply lock is released before the fsync. Every remote
// record comes through here (pushes, fenced pushes, catch-up pulls and
// repairs), so here a version tie is counted: the local record has rec's
// version and another origin, two owners wrote the one version, and
// last-writer-wins discards one of the writes, whichever wins.
func (n *Node) applyPush(rec state.Rec, fence *leaseFenced) (transport.Message, error) {
	n.repApplyMu.Lock()
	curVer, curOrigin, _, _, held := n.store.GetVersioned(rec.Site, rec.Key)
	applied, commit, err := n.storeRec(rec, fence)
	n.repApplyMu.Unlock()
	if err == nil && held && curVer == rec.Ver && curOrigin != rec.Origin {
		n.repTies.Add(1)
	}
	if err == nil {
		err = commit.Wait()
	}
	switch {
	case err == ErrFenced:
		return transport.Message{Args: []string{"fenced"}}, nil
	case err != nil:
		return transport.Message{}, err
	case applied:
		n.repApplied.Add(1)
		return transport.Message{Args: []string{"applied"}}, nil
	}
	return transport.Message{Args: []string{"stale", strconv.FormatUint(curVer, 10), curOrigin}}, nil
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

// repGet routes one client read to the acting owner. A reachable owner's
// miss is authoritative; only transport failures fall through to the next
// replica, and when no replica answers the read fails rather than reading
// as absent. With a hedge budget configured (Config.HedgeAfter), a read
// whose owner is expected to be slow is hedged to the next replica first —
// see hedgeRead.
func (n *Node) repGet(act *trace.Act, site, key string) (value string, ok bool, err error) {
	if value, ok, answered := n.hedgeRead(act, site, key); answered {
		return value, ok, nil
	}
	reply, via, failedOver, err := n.route(act, site, key, msgRepGet, func() []byte { return repGetBody(site, key) }, func() (transport.Message, error) {
		value, ok = n.localVersionedGet(site, key)
		return transport.Message{}, nil
	})
	if err != nil || via == n.cfg.Name {
		return value, ok, err
	}
	if failedOver {
		n.repFailovers.Add(1)
	}
	value, ok = repGetReply(reply)
	return value, ok, nil
}

// repGetBody is the body of a rep.get of (site, key).
func repGetBody(site, key string) []byte { return encodeRepForward(repForward{Site: site, Key: key}) }

// repGetReply reads a rep.get reply: the record's value on a hit.
func repGetReply(reply transport.Message) (string, bool) {
	if replyStatus(reply) == "hit" {
		if rec, err := state.DecodeRec(reply.Body); err == nil {
			return rec.Value, true
		}
	}
	return "", false
}

// hedgeRead is the tail-tolerance path of replicated reads: when hedging
// is enabled (Config.HedgeAfter > 0) and the acting owner's expected round
// trip — the per-peer EWMA the node maintains over every completed RPC —
// exceeds the budget, the read fires at the next replica in successor
// order instead of waiting out the slow owner. The first answer wins: a
// hit from the hedge target is returned immediately and the slow owner is
// never contacted for this read (the "loser" is cancelled by prediction —
// on a synchronous transport the race is resolved before it starts). A
// miss or failure from the hedge target falls back to the normal owner
// path, so hedging can only add one cheap RPC, never turn a readable key
// into a miss.
//
// Freshness: a hedge hit serves the replica's copy, which can trail a
// just-acknowledged write the replica missed (acks need only one of the
// K-1 replicas) until repair catches it up — the same class of staleness
// the dead-owner failover read path already serves, and in-model for Na
// Kika's optimistic last-writer-wins hard state. Maintain's refreshRTTs
// retrains a recovered owner's estimate so reads return to the owner
// instead of hedging forever. answered reports whether the
// hedge produced an authoritative result.
func (n *Node) hedgeRead(act *trace.Act, site, key string) (value string, ok, answered bool) {
	if n.cfg.HedgeAfter <= 0 || !n.repEnabled() {
		return "", false, false
	}
	rk := state.ReplicaKey(site, key)
	owner, err := n.overlay.LookupNameAvoid(rk, nil)
	if err != nil || owner == n.cfg.Name {
		return "", false, false
	}
	expect, known := n.rtts.Expect(owner)
	if !known || expect <= n.cfg.HedgeAfter {
		return "", false, false
	}
	alt, err := n.overlay.LookupNameAvoid(rk, map[string]bool{owner: true})
	if err != nil {
		return "", false, false
	}
	n.hedged.Add(1)
	// The requesting pipeline's trace records the hedge fire and whether
	// the hedge target's answer won (answered == the hedge was
	// authoritative).
	defer func() { act.RecordHedge(answered) }()
	if alt == n.cfg.Name {
		// This node is the next replica: serve its local copy.
		if v, ok := n.localVersionedGet(site, key); ok {
			n.hedgeHits.Add(1)
			return v, true, true
		}
		return "", false, false
	}
	reply, err := n.callT(act, alt, transport.Message{Type: msgRepGet, Body: repGetBody(site, key)})
	if err != nil {
		return "", false, false
	}
	if v, ok := repGetReply(reply); ok {
		n.hedgeHits.Add(1)
		return v, true, true
	}
	return "", false, false
}

// repKeys enumerates a site's live keys cluster-wide: the local holdings
// plus a scatter to every ring member's rep.keys (unreachable members are
// skipped — their keys are replicated on reachable successors). This
// keeps the host API contract that State.keys() agrees with State.get():
// keys span the ring, so enumeration must too. The scatter is O(members)
// per call; site key sets and rings are small at this system's scale. A
// node without peers holds every key, so it lists its own.
func (n *Node) repKeys(act *trace.Act, site string) []string {
	if !n.repEnabled() {
		return n.store.KeysVersioned(site)
	}
	set := make(map[string]struct{})
	for _, k := range n.store.KeysVersioned(site) {
		set[k] = struct{}{}
	}
	for _, peer := range n.cfg.Ring.Nodes() {
		if peer == n.cfg.Name {
			continue
		}
		reply, err := n.callT(act, peer, transport.Message{Type: msgRepKeys, Key: site})
		if err != nil {
			continue
		}
		for _, k := range reply.Args {
			set[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// localVersionedGet reads (site, key) from the local store: a tombstone is
// a miss, and a raw value an older single node wrote reads as itself
// (GetVersioned's version 0).
func (n *Node) localVersionedGet(site, key string) (string, bool) {
	_, _, deleted, value, ok := n.store.GetVersioned(site, key)
	if !ok || deleted {
		return "", false
	}
	return value, true
}

// LocalStateRecord exposes the node's local copy of a replicated record
// (version, value, liveness) without any routing — the harness uses it to
// count replicas and check convergence.
func (n *Node) LocalStateRecord(site, key string) (ver uint64, value string, deleted, ok bool) {
	ver, _, deleted, value, ok = n.store.GetVersioned(site, key)
	return ver, value, deleted, ok
}

// ---------------------------------------------------------------------------
// Churn: repair (re-replication, promotion) and handoff streams
// ---------------------------------------------------------------------------

// repairReplication walks every replicated record this node holds and
// restores the replication invariant around it: records this node is the
// acting owner of (including replicas just promoted by an owner's death)
// are pushed to the node's replica targets; records owned elsewhere are
// pushed to their acting owner, so a newly responsible node receives keys
// that rebalanced onto it. All pushes are idempotent last-writer-wins
// applies, so repairing too eagerly is merely wasted traffic. Maintain
// runs it.
func (n *Node) repairReplication() {
	recs := n.store.VersionedRecords(nil)
	if len(recs) == 0 {
		return
	}
	liveness := make(map[string]bool)
	probe := func(name string) bool {
		if alive, ok := liveness[name]; ok {
			return alive
		}
		alive := n.overlay.Ping(name)
		liveness[name] = alive
		return alive
	}
	for _, rec := range recs {
		rk := state.ReplicaKey(rec.Site, rec.Key)
		owner, err := n.resolveActingOwner(rk, probe)
		if err != nil {
			continue
		}
		msg := pushMsg(rec, nil)
		targets := []string{owner}
		if owner == n.cfg.Name {
			targets = targets[:0]
			for _, t := range n.replicaTargets() {
				if probe(t) {
					targets = append(targets, t)
				}
			}
		}
		for _, t := range targets {
			if _, err := n.call(t, msg); err == nil {
				n.repPushes.Add(1)
			}
		}
	}
}

// repKeyLess orders replica keys by (ring hash, key) — the deterministic
// total order handoff streams are paginated in, identical on every node.
func repKeyLess(a, b string) bool {
	ha, hb := overlay.HashID(a), overlay.HashID(b)
	if ha != hb {
		return ha < hb
	}
	return a < b
}

// handoffChunk is how many records one rep.range reply carries.
const handoffChunk = 64

// CatchUp streams the records of this node's owned key range
// (predecessor, self] from its successors, applying each record
// last-writer-wins, if a catch-up is pending: NewNode (with replication on)
// and Recover set it, because a node that just joined or restarted has
// missed the writes to the range it now owns. A successful pull clears it.
// Maintain retries a pending catch-up every round and follows a successful
// one with a full repair; Tick also runs CatchUp alone at boot, before the
// first round (see Maintain). It returns how many records were applied.
func (n *Node) CatchUp() (int, error) {
	if !n.catchUp.Load() {
		return 0, nil
	}
	n.catchUpTries.Add(1)
	applied, err := n.pullOwnedRange()
	n.catchUpApplied.Add(int64(applied))
	if err == nil {
		n.catchUp.Store(false)
	}
	return applied, err
}

// pullOwnedRange is CatchUp's pull. The stream is chunked (handoffChunk
// records per RPC); if the source dies mid-stream, the pull continues from
// the same cursor against the next successor — the replicas hold the same
// records, and anything missed is restored by repair.
func (n *Node) pullOwnedRange() (int, error) {
	from, to, ok := n.overlay.OwnedRange()
	if !ok {
		return 0, fmt.Errorf("core: %s: owned range unknown (no predecessor yet)", n.cfg.Name)
	}
	applied := 0
	after := ""
	sources := n.overlay.Successors()
	si := 0
	for {
		if si >= len(sources) {
			if applied == 0 && len(sources) == 0 {
				return 0, nil // alone on the ring: nothing to pull
			}
			return applied, fmt.Errorf("core: %s: handoff sources exhausted after %d records", n.cfg.Name, applied)
		}
		src := sources[si]
		if src == n.cfg.Name {
			si++
			continue
		}
		body := encodeRepRangeReq(repRangeReq{From: uint64(from), To: uint64(to), After: after, Limit: handoffChunk})
		reply, err := n.call(src, transport.Message{Type: msgRepRange, Body: body})
		if err != nil {
			si++ // source died mid-stream: resume at the cursor from the next replica
			continue
		}
		resp, err := decodeRepRangeResp(reply.Body)
		if err != nil {
			return applied, err
		}
		for _, rec := range resp.Recs {
			if reply, err := n.applyPush(rec, nil); err == nil && replyStatus(reply) == "applied" {
				applied++
			}
			after = state.ReplicaKey(rec.Site, rec.Key)
		}
		if !resp.More {
			return applied, nil
		}
		if len(resp.Recs) == 0 {
			return applied, fmt.Errorf("core: %s: empty handoff chunk claiming more", n.cfg.Name)
		}
	}
}

// ---------------------------------------------------------------------------
// RPC handler
// ---------------------------------------------------------------------------

// serveRepRPC answers peers' replication messages.
func (n *Node) serveRepRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgRepPut, msgRepDel:
		req, err := decodeRepForward(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		// The sender routed here believing this node is the acting owner;
		// accept the role (its tables may be fresher than ours under churn).
		rec := state.Rec{Site: req.Site, Key: req.Key, Delete: msg.Type == msgRepDel, Value: req.Value}
		return transport.Message{}, n.ownerWrite(rec, nil)
	case msgRepGet:
		req, err := decodeRepForward(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		ver, origin, deleted, value, ok := n.store.GetVersioned(req.Site, req.Key)
		if !ok || deleted {
			return transport.Message{Args: []string{"miss"}}, nil
		}
		body := state.EncodeRec(state.Rec{Site: req.Site, Key: req.Key, Ver: ver, Origin: origin, Value: value})
		return transport.Message{Args: []string{"hit"}, Body: body}, nil
	case msgRepStore:
		rec, err := state.DecodeRec(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		return n.applyPush(rec, nil)
	case msgRepKeys:
		return transport.Message{Args: n.store.KeysVersioned(msg.Key)}, nil
	case msgRepRange:
		req, err := decodeRepRangeReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		// Each chunk rescans the store, so a stream over R records in a
		// store of S costs O(R/chunk * S). Deliberate: keeping per-stream
		// server state would have to survive requester retries against
		// other replicas mid-crash, and stores here are far too small for
		// the rescan to matter.
		recs := n.store.VersionedRecords(func(site, key string) bool {
			rk := state.ReplicaKey(site, key)
			if !overlay.InInterval(overlay.HashID(rk), overlay.ID(req.From), overlay.ID(req.To)) {
				return false
			}
			return req.After == "" || repKeyLess(req.After, rk)
		})
		sort.Slice(recs, func(i, j int) bool {
			return repKeyLess(state.ReplicaKey(recs[i].Site, recs[i].Key), state.ReplicaKey(recs[j].Site, recs[j].Key))
		})
		limit := req.Limit
		if limit <= 0 {
			limit = handoffChunk
		}
		more := len(recs) > limit
		if more {
			recs = recs[:limit]
		}
		return transport.Message{Body: encodeRepRangeResp(repRangeResp{Recs: recs, More: more})}, nil
	default:
		return transport.Message{}, fmt.Errorf("core: unknown replication message %q", msg.Type)
	}
}
