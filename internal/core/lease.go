package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"nakika/internal/lease"
	"nakika/internal/state"
	"nakika/internal/store"
	"nakika/internal/trace"
	"nakika/internal/transport"
)

// Distributed leases over the replicated hard state. A lease record lives
// at the internal key lease.Key(name), so placement, synchronous
// replication, failover, churn handoff, and repair all come from the
// successor-list machinery; this file adds the two things replication
// alone cannot give: serialized arbitration (the record's acting owner
// decides every acquire/renew/release under one lock, so grants cannot
// race) and fencing enforcement (fenced writes carry the holdership's
// token and are admitted against each store's durable floor, so a deposed
// holder's late writes are rejected at the WAL even when every clock and
// routing table is confused).
//
// Recovery is adaptive in the recoverable-mutual-exclusion style: an
// acquire that would be denied probes the recorded holder once (the
// overlay's O(1) ping — the same failure detector stabilization uses).
// A dead holder is deposed immediately, so handover after a
// detector-visible crash costs a constant number of messages; only an
// unreachable-but-possibly-alive holder makes the heir wait out the TTL.
//
// Clock contract: expiry runs on the lease clock (the simulated network's
// virtual clock under the harness, wall time in production). Clock skew
// can therefore only hurt liveness — a lease expiring late delays an
// heir, never admits two — because safety rests on the fencing tokens,
// which are checked against durable per-store floors with no clock
// involved. This is the same shape as the hedge-read freshness contract:
// the optimistic layer may be stale, the guarded layer may not.

// Lease message types (the "lease." prefix is what transport.Mux routes
// on).
const (
	msgLeaseAcquire = "lease.acquire" // forward an acquire to the record's acting owner
	msgLeaseRenew   = "lease.renew"   // forward a renew
	msgLeaseRelease = "lease.release" // forward a release
	msgLeaseFPut    = "lease.fput"    // forward a fenced state put to the acting owner
	msgLeaseFStore  = "lease.fstore"  // owner → replica push of one fenced record
)

// ErrFenced is returned by FencedStatePut when the write's holdership has
// been deposed: some store's fence floor holds a newer (token, holder)
// pair, so the write must not land anywhere it has not already.
var ErrFenced = errors.New("core: write fenced off by a newer lease holdership")

// LeaseStats counts lease activity (all zero when no lease is ever taken).
// Arbitration counters are maintained at the record's acting owner.
type LeaseStats struct {
	// Acquired counts fresh grants (including expiry and crash handovers);
	// Renewed counts extensions keeping the token; Released counts early
	// releases; Denied counts acquires refused because a live holder held
	// the lease.
	Acquired int64
	Renewed  int64
	Released int64
	Denied   int64
	// CrashHandovers counts grants issued over a holder the failure
	// detector reported dead (the O(1) adaptive path); ExpiryHandovers
	// counts grants that had to wait out the TTL.
	CrashHandovers  int64
	ExpiryHandovers int64
	// FencedWrites counts fenced puts acknowledged; FencedRejects counts
	// writes refused because their holdership was deposed.
	FencedWrites  int64
	FencedRejects int64
}

// leaseNow reads the lease clock in nanoseconds.
func (n *Node) leaseNow() int64 {
	if n.cfg.LoadClock != nil {
		return int64(n.cfg.LoadClock())
	}
	return time.Now().UnixNano()
}

// leaseTTL resolves a caller-supplied TTL against the configured default.
func (n *Node) leaseTTL(ttl time.Duration) int64 {
	if ttl <= 0 {
		ttl = n.cfg.LeaseTTL
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	return int64(ttl)
}

// localLeaseRecord reads the lease record from the local store. Missing
// keys, tombstones, and undecodable values all read as the zero record —
// a deleted lease starts over from token 1, which is safe because every
// store's fence floor survives the tombstone and keeps deposed
// holderships fenced.
func (n *Node) localLeaseRecord(site, name string) lease.Record {
	value, ok := n.localVersionedGet(site, lease.Key(name))
	if !ok {
		return lease.Record{}
	}
	rec, ok := lease.Decode(value)
	if !ok {
		return lease.Record{}
	}
	return rec
}

// LeaseRecord exposes the node's local copy of a lease record without any
// routing — the harness uses it to check convergence.
func (n *Node) LeaseRecord(site, name string) (lease.Record, bool) {
	value, ok := n.localVersionedGet(site, lease.Key(name))
	if !ok {
		return lease.Record{}, false
	}
	return lease.Decode(value)
}

// leaseStore persists a decided lease record: through the replicated
// owner write path when replication is on (durable locally plus at least
// one replica before the grant is acknowledged), a plain versioned local
// write otherwise (single-node leases still work without an overlay).
func (n *Node) leaseStore(site, name string, rec lease.Record) error {
	if n.repEnabled() {
		return n.ownerPut(site, lease.Key(name), false, lease.Encode(rec))
	}
	return n.localVersionedPut(site, lease.Key(name), lease.Encode(rec))
}

// ---------------------------------------------------------------------------
// Owner-side arbitration
// ---------------------------------------------------------------------------

// ownerLeaseAcquire decides one acquire at the acting owner. leaseMu
// serializes every arbitration on this node, so reading the record,
// deciding, and storing the result is one atomic step with respect to
// other lease operations (the replicated write inside takes the usual
// replication locks underneath).
func (n *Node) ownerLeaseAcquire(site, name, holder string, ttl int64) (lease.Record, lease.Outcome, error) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	cur := n.localLeaseRecord(site, name)
	now := n.leaseNow()
	rec, out := lease.Acquire(cur, holder, now, ttl, false)
	if out == lease.Denied && n.overlay != nil && !n.overlay.Ping(cur.Holder) {
		// Adaptive recovery: the lease looks held, but one probe of the
		// recorded holder — issued only on a would-be denial, so the happy
		// path never pays it — shows the holder dead. Depose it now
		// instead of making the heir wait out the TTL.
		rec, out = lease.Acquire(cur, holder, now, ttl, true)
	}
	if out == lease.Denied {
		n.leaseDenied.Add(1)
		return cur, out, nil
	}
	if err := n.leaseStore(site, name, rec); err != nil {
		// The grant never became durable-and-replicated, so it was never
		// issued; the caller sees the error, not a lease.
		return cur, out, err
	}
	switch out {
	case lease.Renewed:
		n.leaseRenewed.Add(1)
	case lease.CrashGrant:
		n.leaseAcquired.Add(1)
		n.leaseCrashHO.Add(1)
	case lease.ExpiryGrant:
		n.leaseAcquired.Add(1)
		n.leaseExpiryHO.Add(1)
	default:
		n.leaseAcquired.Add(1)
	}
	return rec, out, nil
}

func (n *Node) ownerLeaseRenew(site, name, holder string, token uint64, ttl int64) (bool, error) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	rec, ok := lease.Renew(n.localLeaseRecord(site, name), holder, token, n.leaseNow(), ttl)
	if !ok {
		return false, nil
	}
	if err := n.leaseStore(site, name, rec); err != nil {
		return false, err
	}
	n.leaseRenewed.Add(1)
	return true, nil
}

func (n *Node) ownerLeaseRelease(site, name, holder string, token uint64) (bool, error) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	rec, ok := lease.Release(n.localLeaseRecord(site, name), holder, token)
	if !ok {
		return false, nil
	}
	if err := n.leaseStore(site, name, rec); err != nil {
		return false, err
	}
	n.leaseReleased.Add(1)
	return true, nil
}

// ownerFencedPut is the acting-owner path of a fenced write: assign the
// next version, admit the write against the local fence floor, then push
// record and fence together to the replica targets. Any replica whose
// floor rejects the write means the holdership is deposed there — the
// write is not acknowledged and the caller must stop writing. The rebase
// loop mirrors ownerPut.
func (n *Node) ownerFencedPut(site, key, value, guard, holder string, token uint64) error {
	if !n.repEnabled() {
		// Single-node (or shared-bus) mode stores plain values — the same
		// encoding StatePut uses there, so State.get reads fenced writes
		// back. The backend's FencedPut is still one atomic admit + write +
		// floor-raise; only the versioned LWW wrapper is skipped. Fenced
		// writes stay node-local in this mode (the bus carries no fences).
		n.repApplyMu.Lock()
		err := n.store.Backend().FencedPut(site, key, value, guard, holder, token)
		n.repApplyMu.Unlock()
		if err == store.ErrFencedStale {
			n.leaseFenceRej.Add(1)
			return ErrFenced
		}
		if err != nil {
			return err
		}
		n.leaseFenced.Add(1)
		return nil
	}
	baseVer := uint64(0)
	for attempt := 0; attempt < 3; attempt++ {
		n.repApplyMu.Lock()
		if curVer, _, _, _, ok := n.store.GetVersioned(site, key); ok && curVer > baseVer {
			baseVer = curVer
		}
		rec := state.Rec{Site: site, Key: key, Ver: baseVer + 1, Origin: n.cfg.Name, Value: value}
		_, err := n.store.FencedPutVersioned(rec, guard, holder, token)
		n.repApplyMu.Unlock()
		if err == store.ErrFencedStale {
			n.leaseFenceRej.Add(1)
			return ErrFenced
		}
		if err != nil {
			return err
		}
		acks, attempts, staleVer, fenced := n.replicateFenced(rec, guard, holder, token)
		switch {
		case fenced:
			// A replica's floor holds a newer holdership this owner has not
			// heard of yet (it is the stale side of a healed split-brain).
			// The local copy stays — that store's own admission sequence is
			// still clean — but the write is not acknowledged: LWW repair
			// from the newer holdership's records will supersede it.
			n.leaseFenceRej.Add(1)
			return ErrFenced
		case staleVer >= rec.Ver:
			baseVer = staleVer
		case attempts == 0 || acks > 0:
			n.leaseFenced.Add(1)
			return nil
		default:
			return fmt.Errorf("core: fenced write %s/%s durable locally but none of %d replicas acknowledged", site, key, attempts)
		}
	}
	return fmt.Errorf("core: fenced write %s/%s: replicas kept superseding the write", site, key)
}

// replicateFenced pushes one fenced record to the replica targets; beyond
// replicate's accounting it reports whether any replica fenced the write
// off.
func (n *Node) replicateFenced(rec state.Rec, guard, holder string, token uint64) (acks, attempts int, staleVer uint64, fenced bool) {
	targets := n.replicaTargets()
	if len(targets) == 0 {
		return 0, 0, 0, false
	}
	body := encodeLeaseFenced(leaseFenced{Guard: guard, Holder: holder, Token: token, Rec: rec})
	for _, t := range targets {
		attempts++
		reply, err := n.call(t, transport.Message{Type: msgLeaseFStore, Body: body})
		if err != nil {
			continue
		}
		if len(reply.Args) > 0 {
			switch reply.Args[0] {
			case "fenced":
				fenced = true
				continue
			case "stale":
				if len(reply.Args) >= 2 {
					var v uint64
					if _, err := fmt.Sscanf(reply.Args[1], "%d", &v); err == nil && v > staleVer {
						staleVer = v
					}
				}
				continue
			}
		}
		acks++
		n.repPushes.Add(1)
	}
	return acks, attempts, staleVer, fenced
}

// ---------------------------------------------------------------------------
// Client API (vocab.Host lease methods and the harness entry points)
// ---------------------------------------------------------------------------

// leaseForward routes one lease operation to the record's acting owner,
// failing over in successor order exactly like the replicated mutations.
func (n *Node) leaseForward(act *trace.Act, site, name, msgType string, body []byte, local func() (transport.Message, error)) (transport.Message, error) {
	rk := state.ReplicaKey(site, lease.Key(name))
	avoid := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < n.repFactor+1; attempt++ {
		owner, _, err := n.overlay.LookupNameAvoid(rk, avoid)
		if err != nil {
			return transport.Message{}, err
		}
		if owner == n.cfg.Name {
			return local()
		}
		reply, err := n.callT(act, owner, transport.Message{Type: msgType, Body: body})
		if err == nil {
			return reply, nil
		}
		if transport.IsRemote(err) {
			// The owner answered and refused (replication failure): that is
			// the operation's result, not a routing problem. Denials and
			// fencing travel as reply values, never as errors.
			return transport.Message{}, err
		}
		avoid[owner] = true
		lastErr = err
	}
	return transport.Message{}, fmt.Errorf("core: %s %s/%s: no reachable owner: %w", msgType, site, name, lastErr)
}

// LeaseAcquire takes (or renews) the named per-site lease for this node.
// ttl <= 0 means the configured default. It returns the holdership's
// fencing token; ok is false when a live holder already has the lease or
// no owner was reachable.
func (n *Node) LeaseAcquire(site, name string, ttl time.Duration) (uint64, bool) {
	return n.leaseAcquire(nil, site, name, ttl)
}

func (n *Node) leaseAcquire(act *trace.Act, site, name string, ttl time.Duration) (uint64, bool) {
	t := n.leaseTTL(ttl)
	local := func() (transport.Message, error) {
		rec, out, err := n.ownerLeaseAcquire(site, name, n.cfg.Name, t)
		if err != nil {
			return transport.Message{}, err
		}
		return leaseAcquireReply(rec, out), nil
	}
	var token uint64
	var ok bool
	if !n.repEnabled() {
		reply, err := local()
		token, ok = parseLeaseAcquireReply(reply, err)
	} else {
		body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: n.cfg.Name, TTL: t})
		reply, err := n.leaseForward(act, site, name, msgLeaseAcquire, body, local)
		token, ok = parseLeaseAcquireReply(reply, err)
	}
	act.RecordLeaseAcquire(ok, token)
	return token, ok
}

// LeaseRenew extends this node's holdership before it expires.
func (n *Node) LeaseRenew(site, name string, token uint64, ttl time.Duration) bool {
	return n.leaseRenew(nil, site, name, token, ttl)
}

func (n *Node) leaseRenew(act *trace.Act, site, name string, token uint64, ttl time.Duration) bool {
	t := n.leaseTTL(ttl)
	local := func() (transport.Message, error) {
		ok, err := n.ownerLeaseRenew(site, name, n.cfg.Name, token, t)
		return leaseBoolReply(ok), err
	}
	var ok bool
	if !n.repEnabled() {
		reply, err := local()
		ok = err == nil && leaseReplyOK(reply)
	} else {
		body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: n.cfg.Name, Token: token, TTL: t})
		reply, err := n.leaseForward(act, site, name, msgLeaseRenew, body, local)
		ok = err == nil && leaseReplyOK(reply)
	}
	act.RecordLeaseRenew(ok)
	return ok
}

// LeaseRelease gives this node's holdership up early.
func (n *Node) LeaseRelease(site, name string, token uint64) bool {
	return n.leaseRelease(nil, site, name, token)
}

func (n *Node) leaseRelease(act *trace.Act, site, name string, token uint64) bool {
	local := func() (transport.Message, error) {
		ok, err := n.ownerLeaseRelease(site, name, n.cfg.Name, token)
		return leaseBoolReply(ok), err
	}
	var ok bool
	if !n.repEnabled() {
		reply, err := local()
		ok = err == nil && leaseReplyOK(reply)
	} else {
		body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: n.cfg.Name, Token: token})
		reply, err := n.leaseForward(act, site, name, msgLeaseRelease, body, local)
		ok = err == nil && leaseReplyOK(reply)
	}
	if ok {
		act.RecordLeaseRelease()
	}
	return ok
}

// FencedStatePut writes site-partitioned hard state under the named
// lease's fencing token: the write is routed to the key's acting owner,
// admitted against the durable fence floors there and on every replica it
// reaches, and rejected with ErrFenced anywhere a newer holdership has
// already written. Scripts reach it as Lease.put.
func (n *Node) FencedStatePut(site, key, value, name string, token uint64) error {
	return n.fencedStatePut(nil, site, key, value, name, token)
}

func (n *Node) fencedStatePut(act *trace.Act, site, key, value, name string, token uint64) error {
	if state.IsInternalKey(key) {
		return fmt.Errorf("core: key %q is in the reserved internal namespace", key)
	}
	guard := lease.Key(name)
	local := func() (transport.Message, error) {
		if err := n.ownerFencedPut(site, key, value, guard, n.cfg.Name, token); err != nil {
			if err == ErrFenced {
				return transport.Message{Args: []string{"fenced"}}, nil
			}
			return transport.Message{}, err
		}
		return transport.Message{Args: []string{"ok"}}, nil
	}
	var reply transport.Message
	var err error
	if !n.repEnabled() {
		reply, err = local()
	} else {
		body := encodeLeaseFenced(leaseFenced{
			Guard: guard, Holder: n.cfg.Name, Token: token,
			Rec: state.Rec{Site: site, Key: key, Value: value},
		})
		reply, err = n.leaseForward(act, site, key, msgLeaseFPut, body, local)
	}
	if err != nil {
		return err
	}
	if len(reply.Args) > 0 && reply.Args[0] == "fenced" {
		act.RecordFencedPut(token, true)
		return ErrFenced
	}
	act.RecordFencedPut(token, false)
	return nil
}

func leaseAcquireReply(rec lease.Record, out lease.Outcome) transport.Message {
	return transport.Message{Args: []string{out.String(), strconv.FormatUint(rec.Token, 10)}}
}

func parseLeaseAcquireReply(reply transport.Message, err error) (uint64, bool) {
	if err != nil || len(reply.Args) < 2 || reply.Args[0] == "denied" {
		return 0, false
	}
	token, perr := strconv.ParseUint(reply.Args[1], 10, 64)
	if perr != nil {
		return 0, false
	}
	return token, true
}

func leaseBoolReply(ok bool) transport.Message {
	if ok {
		return transport.Message{Args: []string{"ok"}}
	}
	return transport.Message{Args: []string{"no"}}
}

func leaseReplyOK(reply transport.Message) bool {
	return len(reply.Args) > 0 && reply.Args[0] == "ok"
}

// ---------------------------------------------------------------------------
// RPC handler
// ---------------------------------------------------------------------------

// serveLeaseRPC answers peers' lease messages. The node accepts the
// acting-owner role for anything routed to it, exactly as serveRepRPC
// does — the sender's tables may be fresher than ours under churn.
func (n *Node) serveLeaseRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgLeaseAcquire:
		req, err := decodeLeaseReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		rec, out, err := n.ownerLeaseAcquire(req.Site, req.Name, req.Holder, req.TTL)
		if err != nil {
			return transport.Message{}, err
		}
		return leaseAcquireReply(rec, out), nil
	case msgLeaseRenew:
		req, err := decodeLeaseReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		ok, err := n.ownerLeaseRenew(req.Site, req.Name, req.Holder, req.Token, req.TTL)
		if err != nil {
			return transport.Message{}, err
		}
		return leaseBoolReply(ok), nil
	case msgLeaseRelease:
		req, err := decodeLeaseReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		ok, err := n.ownerLeaseRelease(req.Site, req.Name, req.Holder, req.Token)
		if err != nil {
			return transport.Message{}, err
		}
		return leaseBoolReply(ok), nil
	case msgLeaseFPut:
		req, err := decodeLeaseFenced(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		if err := n.ownerFencedPut(req.Rec.Site, req.Rec.Key, req.Rec.Value, req.Guard, req.Holder, req.Token); err != nil {
			if err == ErrFenced {
				return transport.Message{Args: []string{"fenced"}}, nil
			}
			return transport.Message{}, err
		}
		return transport.Message{Args: []string{"ok"}}, nil
	case msgLeaseFStore:
		req, err := decodeLeaseFenced(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		n.repApplyMu.Lock()
		curVer, _, _, _, had := n.store.GetVersioned(req.Rec.Site, req.Rec.Key)
		applied, err := n.store.FencedPutVersioned(req.Rec, req.Guard, req.Holder, req.Token)
		n.repApplyMu.Unlock()
		if err == store.ErrFencedStale {
			return transport.Message{Args: []string{"fenced"}}, nil
		}
		if err != nil {
			return transport.Message{}, err
		}
		if applied {
			n.repApplied.Add(1)
			return transport.Message{Args: []string{"applied"}}, nil
		}
		if !had {
			curVer = 0
		}
		return transport.Message{Args: []string{"stale", fmt.Sprintf("%d", curVer)}}, nil
	default:
		return transport.Message{}, fmt.Errorf("core: unknown lease message %q", msg.Type)
	}
}
