package core

import (
	"crypto/sha1"
	"encoding/binary"
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
// state.Rec) so replication pushes and the range syncs of repair and
// catch-up are all idempotent last-writer-wins applies.
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
	msgRepSync  = "rep.sync"  // compare a range's bucket digests; answer with the records of those that differ
	msgRepKeys  = "rep.keys"  // list a site's live keys held locally (for scatter enumeration)
)

// repForward is the body of rep.put / rep.del / rep.get.
type repForward struct {
	Site, Key, Value string
}

// syncReq is a rep.sync request: the requester's digest of each bucket of
// the ring interval (From, To], and the buckets it asks about (every one
// when Ask is empty).
type syncReq struct {
	From, To uint64
	Sums     [syncBuckets]uint64
	Ask      bucketSet
}

// syncResp answers a syncReq: the asked buckets whose digests differ, split
// into those Recs holds the answering node's records of, whole and in
// (bucket, site, key) order, and those Left for another round.
type syncResp struct {
	Covered, Left bucketSet
	Recs          []state.Rec
}

// repEnabled reports whether successor-list replication is active: it
// needs the overlay for placement and the transport for pushes (NewNode
// resolves the factor only when it has both).
func (n *Node) repEnabled() bool {
	return n.overlay != nil && n.tr != nil && n.repFactor >= 1
}

// replicaTargets returns the successors this node pushes replicas to: the
// first ReplicationFactor-1 successors in its view, which are distinct and
// never the node itself. The list reflects the node's current view: a dead
// member not yet suspected costs a failed push, a live one wrongly
// suspected costs a replica until repair.
func (n *Node) replicaTargets() []string {
	if n.repFactor <= 1 {
		return nil
	}
	succ := n.overlay.Successors()
	return succ[:min(len(succ), n.repFactor-1)]
}

// resolveActingOwner finds the node currently responsible for rk: the
// routed owner, or — when that node does not answer a ping — the first
// live successor, probing through at most the replica set.
func (n *Node) resolveActingOwner(rk string) (string, error) {
	avoid := make(map[string]bool)
	for attempt := 0; attempt < n.repFactor+1; attempt++ {
		owner, err := n.overlay.LookupNameAvoid(rk, avoid)
		if err != nil {
			return "", err
		}
		if owner == n.cfg.Name || n.overlay.Ping(owner) {
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
		acks, staleVer, fenced, pushErr := n.collectPushes(pushes)
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
			return fmt.Errorf("core: write %s/%s durable locally but none of %d replicas acknowledged: %w", rec.Site, rec.Key, len(pushes), pushErr)
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
// it as stale, whether any replica's fence floor rejected it, and the last
// push that failed to deliver.
func (n *Node) collectPushes(pushes []pendingCall) (acks int, staleVer uint64, fenced bool, err error) {
	for _, p := range pushes {
		reply, perr := n.collect(p)
		if perr != nil {
			err = perr
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
	return acks, staleVer, fenced, err
}

// applyPush is the replica side of a push (and of a synced record): store
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
// Churn: range syncs (repair, catch-up)
// ---------------------------------------------------------------------------

// One operation, syncRange, brings two nodes into step on the records of a
// ring interval; repair and catch-up are both runs of it. The records fall
// into syncBuckets fixed buckets by a hash of their replica key, and a
// bucket's digest is the wrapping sum of a hash of each of its records
// (recDigest), so it does not depend on the order records are summed in.
// Both sides compute their digests from a scan of their store when the sync
// runs: nothing is kept between syncs and a write costs nothing extra.
//
// The requester sends its digests and the buckets it asks about; the peer
// answers with the asked buckets whose digests differ and its records of as
// many of them as fit in handoffChunk records, whole buckets in (bucket,
// site, key) order. The requester applies them last-writer-wins with
// applyPush, pushes its own newer records of those buckets with rep.store,
// and asks about the buckets left, until none is. Every round exchanges at
// least one bucket in full, so a converged range costs one exchange and a
// diverged one a round per handoffChunk records that differ.

// syncBuckets is how many buckets a range sync digests a range into.
const syncBuckets = 1024

// handoffChunk is how many records one rep.sync reply carries at most,
// unless the first bucket it covers alone holds more: a bucket is never
// split across replies.
const handoffChunk = 64

// bucketSet is a set of sync buckets.
type bucketSet [syncBuckets / 8]byte

func (s *bucketSet) add(b int)      { s[b/8] |= 1 << (b % 8) }
func (s *bucketSet) has(b int) bool { return s[b/8]&(1<<(b%8)) != 0 }

// syncBucket is the bucket of replica key rk: bits of its SHA-1 past the 64
// that place it on the ring, so the records of any arc spread over every
// bucket.
func syncBucket(rk string) int {
	sum := sha1.Sum([]byte(rk))
	return int(binary.BigEndian.Uint16(sum[8:]) % syncBuckets)
}

// recDigest hashes what every replica of rec must agree on: its replica key,
// version, origin and whether it is a tombstone (its stored encoding, with
// the replica key in place of the value). Two records that differ only in
// value carry one version an owner reissued after losing its history, which
// the write path's rebase resolves.
func recDigest(rec state.Rec) uint64 {
	sum := sha1.Sum([]byte(state.EncodeVersioned(rec.Ver, rec.Origin, rec.Delete, state.ReplicaKey(rec.Site, rec.Key))))
	return binary.BigEndian.Uint64(sum[:])
}

// rangeRecords scans the store for the records whose replica key lies in
// the ring interval (from, to], by bucket and within one in the store's
// deterministic (site, key) order, and sums their digests by bucket.
func (n *Node) rangeRecords(from, to overlay.ID) (recs [][]state.Rec, sums [syncBuckets]uint64) {
	recs = make([][]state.Rec, syncBuckets)
	for _, rec := range n.store.VersionedRecords(func(site, key string) bool {
		return overlay.InInterval(overlay.HashID(state.ReplicaKey(site, key)), from, to)
	}) {
		b := syncBucket(state.ReplicaKey(rec.Site, rec.Key))
		recs[b] = append(recs[b], rec)
		sums[b] += recDigest(rec)
	}
	return recs, sums
}

// syncRange brings this node and peer into step on the records whose
// replica key lies in (from, to] (see above) and returns how many of the
// peer's records superseded a local copy. A nil error means every bucket
// that differed was exchanged in full; the sync fails when the peer does,
// or when a round leaves as many buckets as it asked about.
func (n *Node) syncRange(from, to overlay.ID, peer string) (applied int, err error) {
	for ask := (bucketSet{}); ; {
		recs, sums := n.rangeRecords(from, to)
		body := encodeSyncReq(syncReq{From: uint64(from), To: uint64(to), Sums: sums, Ask: ask})
		reply, err := n.call(peer, transport.Message{Type: msgRepSync, Body: body})
		if err != nil {
			return applied, err
		}
		resp, err := decodeSyncResp(reply.Body)
		if err != nil {
			return applied, err
		}
		theirs := make(map[string]state.Rec, len(resp.Recs))
		for _, rec := range resp.Recs {
			theirs[state.ReplicaKey(rec.Site, rec.Key)] = rec
			if reply, err := n.applyPush(rec, nil); err == nil && replyStatus(reply) == "applied" {
				applied++
			}
		}
		n.syncRecords.Add(int64(len(resp.Recs)))
		for b, bucket := range recs {
			for _, rec := range bucket {
				if cur, ok := theirs[state.ReplicaKey(rec.Site, rec.Key)]; !resp.Covered.has(b) || ok && !rec.Supersedes(cur) {
					continue
				}
				reply, err := n.call(peer, pushMsg(rec, nil))
				if err != nil {
					return applied, err
				}
				n.syncRecords.Add(1)
				if replyStatus(reply) == "applied" {
					n.repPushes.Add(1)
				}
			}
		}
		switch {
		case resp.Left == bucketSet{}:
			return applied, nil
		case resp.Left == ask:
			return applied, fmt.Errorf("core: sync with %s exchanged no bucket", peer)
		}
		ask = resp.Left
	}
}

// answerSync is the peer's side of a sync: the asked buckets whose digests
// differ from this node's, and this node's records of those that fit. Each
// differing bucket is counted once, in the reply that carries it.
func (n *Node) answerSync(req syncReq) (resp syncResp) {
	recs, sums := n.rangeRecords(overlay.ID(req.From), overlay.ID(req.To))
	for b := range recs {
		switch {
		case req.Ask != (bucketSet{}) && !req.Ask.has(b) || sums[b] == req.Sums[b]:
		case len(resp.Recs)+len(recs[b]) <= handoffChunk || resp.Covered == bucketSet{}:
			resp.Covered.add(b)
			n.syncDiffering.Add(1)
			resp.Recs = append(resp.Recs, recs[b]...)
		default:
			resp.Left.add(b)
		}
	}
	return resp
}

// repairRanges restores the replication invariant around every record this
// node holds, a range at a time: each arc of the ring membership it holds a
// record in is synced with the arc's acting owner or, for an arc this node
// acts as owner of (a replica just promoted by an owner's death included),
// with each of its replica targets. A range that rebalanced onto another node
// reaches it, and a converged range costs one exchange per peer whatever it
// holds. Maintain runs it.
func (n *Node) repairRanges() {
	var held []string // a replica key in each arc
	seen := make(map[overlay.ID]bool)
	n.store.Backend().Range(func(site, key, _ string) bool {
		rk := state.ReplicaKey(site, key)
		if _, to := n.cfg.Ring.Arc(rk); !seen[to] {
			seen[to] = true
			held = append(held, rk)
		}
		return true
	})
	for _, rk := range held {
		owner, err := n.resolveActingOwner(rk)
		if err != nil {
			continue
		}
		peers := []string{owner}
		if owner == n.cfg.Name {
			peers = n.replicaTargets()
		}
		from, to := n.cfg.Ring.Arc(rk)
		for _, p := range peers {
			_, _ = n.syncRange(from, to, p) // a failed sync is tried again at the next repair
		}
	}
}

// CatchUp syncs this node's owned key range (predecessor, self] with its
// successors, in order, until one sync completes, if a catch-up is pending:
// NewNode sets it (with replication on), because a node that just joined or
// restarted has missed the writes to the range it now owns. A completed
// sync clears it. Maintain retries a pending catch-up every round and
// follows a successful one with a full repair; Tick also runs CatchUp alone
// at boot, before the first round (see Maintain). It returns how many
// records were applied.
func (n *Node) CatchUp() (int, error) {
	if !n.catchUp.Load() {
		return 0, nil
	}
	n.catchUpTries.Add(1)
	from, to, _ := n.overlay.OwnedRange() // unknown only while the node is alone in its view, with no successor
	applied, err := 0, fmt.Errorf("core: %s: no successor to sync its range with", n.cfg.Name)
	for _, peer := range n.overlay.Successors() {
		got, serr := n.syncRange(from, to, peer)
		if applied, err = applied+got, serr; err == nil {
			break
		}
	}
	n.catchUpApplied.Add(int64(applied))
	if err == nil {
		n.catchUp.Store(false)
	}
	return applied, err
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
	case msgRepSync:
		req, err := decodeSyncReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.Message{Body: encodeSyncResp(n.answerSync(req))}, nil
	default:
		return transport.Message{}, fmt.Errorf("core: unknown replication message %q", msg.Type)
	}
}
