package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"nakika/internal/lease"
	"nakika/internal/state"
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
// ring view is confused).
//
// Recovery is adaptive in the recoverable-mutual-exclusion style: an
// acquire that would be denied probes the recorded holder once (the
// overlay's O(1) ping — the same failure detector the maintenance round
// uses). A dead holder is deposed immediately, so handover after a
// detector-visible crash costs a constant number of messages; only an
// unreachable-but-possibly-alive holder makes the heir wait out the TTL.
//
// Clock contract: expiry runs on the node's one clock (Config.Clock: the
// simulated network's virtual clock under the harness, wall time in
// production), the same clock cache and index freshness run on. Clock skew
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

// leaseNow reads the node clock in nanoseconds.
func (n *Node) leaseNow() int64 { return n.clock().UnixNano() }

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

// LeaseRecord exposes the node's local copy of a lease record without any
// routing — arbitration reads it at the acting owner, the harness uses it
// to check convergence. Missing keys, tombstones, and undecodable values
// all read as the zero record: a deleted lease starts over from token 1,
// which is safe because every store's fence floor survives the tombstone
// and keeps deposed holderships fenced.
func (n *Node) LeaseRecord(site, name string) (lease.Record, bool) {
	value, ok := n.localVersionedGet(site, lease.Key(name))
	if !ok {
		return lease.Record{}, false
	}
	return lease.Decode(value)
}

// ---------------------------------------------------------------------------
// Owner-side arbitration
// ---------------------------------------------------------------------------

// arbitrate is the owner-side step every lease operation shares. leaseMu
// serializes every arbitration on this node, so reading the record,
// deciding (decide wraps one of the pure lease functions) and storing the
// result is one atomic step with respect to other lease operations. The
// decided record goes through ownerWrite — durable locally plus on at
// least one replica before it is acknowledged — so a decision that never
// became durable-and-replicated was never issued: the caller sees the
// error, not a lease. ok reports a decision made and stored.
func (n *Node) arbitrate(site, name string, decide func(cur lease.Record, now int64) (lease.Record, bool)) (ok bool, err error) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	cur, _ := n.LeaseRecord(site, name)
	next, ok := decide(cur, n.leaseNow())
	if !ok {
		return false, nil
	}
	err = n.ownerWrite(state.Rec{Site: site, Key: lease.Key(name), Value: lease.Encode(next)}, nil)
	return err == nil, err
}

// ownerLeaseAcquire decides one acquire at the acting owner.
func (n *Node) ownerLeaseAcquire(req leaseReq) (transport.Message, error) {
	var rec lease.Record
	var out lease.Outcome
	_, err := n.arbitrate(req.Site, req.Name, func(cur lease.Record, now int64) (lease.Record, bool) {
		rec, out = lease.Acquire(cur, req.Holder, now, req.TTL, false)
		if out == lease.Denied && n.overlay != nil && !n.overlay.Ping(cur.Holder) {
			// Adaptive recovery: the lease looks held, but one probe of the
			// recorded holder — issued only on a would-be denial, so the happy
			// path never pays it — shows the holder dead. Depose it now
			// instead of making the heir wait out the TTL.
			rec, out = lease.Acquire(cur, req.Holder, now, req.TTL, true)
		}
		return rec, out != lease.Denied
	})
	if err != nil {
		return transport.Message{}, err
	}
	switch out {
	case lease.Denied:
		n.leaseDenied.Add(1)
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
	return transport.Message{Args: []string{out.String(), strconv.FormatUint(rec.Token, 10)}}, nil
}

// ownerFencedPut is the acting-owner path of a fenced write: ownerWrite
// with the fence, so the write is admitted against the local fence floor
// and record and fence travel together to the replica targets.
func (n *Node) ownerFencedPut(req leaseFenced) error {
	err := n.ownerWrite(state.Rec{Site: req.Rec.Site, Key: req.Rec.Key, Value: req.Rec.Value}, &req)
	switch err {
	case nil:
		n.leaseFenced.Add(1)
	case ErrFenced:
		n.leaseFenceRej.Add(1)
	}
	return err
}

// ---------------------------------------------------------------------------
// Client API (vocab.Host lease methods and the harness entry points)
// ---------------------------------------------------------------------------

// leaseCall routes one lease message to the acting owner of the record
// (site, key) it operates on. The local arm is the RPC handler itself, so
// the owner-side code of an operation exists once, whoever the owner is.
// Denials and fencing travel as reply values, never as errors.
func (n *Node) leaseCall(act *trace.Act, site, key, msgType string, body []byte) (transport.Message, error) {
	reply, _, _, err := n.route(act, site, key, msgType, func() []byte { return body }, func() (transport.Message, error) {
		return n.serveLeaseRPC(n.cfg.Name, transport.Message{Type: msgType, Body: body})
	})
	return reply, err
}

// LeaseAcquire takes (or renews) the named per-site lease for this node.
// ttl <= 0 means the configured default. It returns the holdership's
// fencing token; ok is false when a live holder already has the lease or
// no owner was reachable.
func (h nodeHost) LeaseAcquire(act *trace.Act, site, name string, ttl time.Duration) (uint64, bool) {
	body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: h.n.cfg.Name, TTL: h.n.leaseTTL(ttl)})
	token, ok := parseLeaseAcquireReply(h.n.leaseCall(act, site, lease.Key(name), msgLeaseAcquire, body))
	act.RecordLeaseAcquire(ok, token)
	return token, ok
}

// LeaseRenew extends this node's holdership before it expires.
func (h nodeHost) LeaseRenew(act *trace.Act, site, name string, token uint64, ttl time.Duration) bool {
	body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: h.n.cfg.Name, Token: token, TTL: h.n.leaseTTL(ttl)})
	reply, err := h.n.leaseCall(act, site, lease.Key(name), msgLeaseRenew, body)
	ok := err == nil && replyStatus(reply) == "ok"
	act.RecordLeaseRenew(ok)
	return ok
}

// LeaseRelease gives this node's holdership up early.
func (h nodeHost) LeaseRelease(act *trace.Act, site, name string, token uint64) bool {
	body := encodeLeaseReq(leaseReq{Site: site, Name: name, Holder: h.n.cfg.Name, Token: token})
	reply, err := h.n.leaseCall(act, site, lease.Key(name), msgLeaseRelease, body)
	ok := err == nil && replyStatus(reply) == "ok"
	if ok {
		act.RecordLeaseRelease()
	}
	return ok
}

// FencedStatePut writes site-partitioned hard state under the named
// lease's fencing token: the write is routed to the acting owner of the
// data key — placed and read exactly like a plain write of that key —
// admitted against the durable fence floors there and on every replica it
// reaches, and rejected with ErrFenced anywhere a newer holdership has
// already written. Scripts reach it as Lease.put.
func (h nodeHost) FencedStatePut(act *trace.Act, site, key, value, name string, token uint64) error {
	if err := reserved(key); err != nil {
		return err
	}
	reply, err := h.n.leaseCall(act, site, key, msgLeaseFPut, encodeLeaseFenced(leaseFenced{
		Guard: lease.Key(name), Holder: h.n.cfg.Name, Token: token,
		Rec: state.Rec{Site: site, Key: key, Value: value},
	}))
	if err != nil {
		return err
	}
	fenced := replyStatus(reply) == "fenced"
	act.RecordFencedPut(token, fenced)
	if fenced {
		return ErrFenced
	}
	return nil
}

// LeaseAcquire, LeaseRenew, LeaseRelease and FencedStatePut are the
// harness's direct lease operations, untraced.
func (n *Node) LeaseAcquire(site, name string, ttl time.Duration) (uint64, bool) {
	return nodeHost{n}.LeaseAcquire(nil, site, name, ttl)
}
func (n *Node) LeaseRenew(site, name string, token uint64, ttl time.Duration) bool {
	return nodeHost{n}.LeaseRenew(nil, site, name, token, ttl)
}
func (n *Node) LeaseRelease(site, name string, token uint64) bool {
	return nodeHost{n}.LeaseRelease(nil, site, name, token)
}
func (n *Node) FencedStatePut(site, key, value, name string, token uint64) error {
	return nodeHost{n}.FencedStatePut(nil, site, key, value, name, token)
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

// leaseBoolReply answers a renew or release, counting one that took
// effect.
func leaseBoolReply(ok bool, done *atomic.Int64) transport.Message {
	if !ok {
		return transport.Message{Args: []string{"no"}}
	}
	done.Add(1)
	return transport.Message{Args: []string{"ok"}}
}

// ---------------------------------------------------------------------------
// RPC handler
// ---------------------------------------------------------------------------

// serveLeaseRPC answers peers' lease messages. The node accepts the
// acting-owner role for anything routed to it, exactly as serveRepRPC
// does — the sender's tables may be fresher than ours under churn.
func (n *Node) serveLeaseRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgLeaseAcquire, msgLeaseRenew, msgLeaseRelease:
		req, err := decodeLeaseReq(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		switch msg.Type {
		case msgLeaseAcquire:
			return n.ownerLeaseAcquire(req)
		case msgLeaseRenew:
			ok, err := n.arbitrate(req.Site, req.Name, func(cur lease.Record, now int64) (lease.Record, bool) {
				return lease.Renew(cur, req.Holder, req.Token, now, req.TTL)
			})
			return leaseBoolReply(ok, &n.leaseRenewed), err
		default:
			ok, err := n.arbitrate(req.Site, req.Name, func(cur lease.Record, _ int64) (lease.Record, bool) {
				return lease.Release(cur, req.Holder, req.Token)
			})
			return leaseBoolReply(ok, &n.leaseReleased), err
		}
	case msgLeaseFPut, msgLeaseFStore:
		req, err := decodeLeaseFenced(msg.Body)
		if err != nil {
			return transport.Message{}, err
		}
		if msg.Type == msgLeaseFStore {
			return n.applyPush(req.Rec, &req)
		}
		switch err := n.ownerFencedPut(req); err {
		case nil:
			return transport.Message{Args: []string{"ok"}}, nil
		case ErrFenced:
			return transport.Message{Args: []string{"fenced"}}, nil
		default:
			return transport.Message{}, err
		}
	default:
		return transport.Message{}, fmt.Errorf("core: unknown lease message %q", msg.Type)
	}
}
