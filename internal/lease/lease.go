// Package lease implements crash-recoverable distributed leases with
// monotonic fencing tokens. A lease is a versioned hard-state record (it
// rides the same replicated last-writer-wins layer as every other record,
// so successor-list replication, failover, churn handoff, and repair carry
// it for free); this package owns the pure state machine — who may hold
// the lease, when it expires, and which fencing token a holdership was
// issued — while internal/core arbitrates transitions at the record's
// acting owner and internal/store enforces the tokens at the WAL write
// path.
//
// The safety story deliberately does not rest on the lease itself: leases
// are a liveness mechanism (at most one node *believes* it holds the
// critical section at a time, under a well-behaved clock), while fencing
// tokens are the safety mechanism — every fenced write carries the token
// of the holdership that issued it, every store rejects writes below its
// durable token floor, so a deposed holder's late writes are fenced off no
// matter how confused its clock or its network is. This is the
// recoverable-mutual-exclusion discipline (Dhoked & Mittal): a crashed
// holder's section is recovered by an heir in O(1) messages when the crash
// is failure-detector-visible, and by lease expiry otherwise.
package lease

// Record is the lease state stored (encoded, see Encode) as the value of a
// replicated hard-state key. The zero Record is "never held".
type Record struct {
	// Holder is the node name currently (or most recently) holding the
	// lease.
	Holder string
	// Token is the monotonic fencing token issued with the current
	// holdership. Every fresh grant bumps it; a renewal keeps it. Zero
	// means the lease has never been granted.
	Token uint64
	// Expires is the instant (in lease-clock nanoseconds: the simulated
	// network's virtual clock under the harness, wall time in production)
	// at which the holdership lapses.
	Expires int64
	// Released marks a holdership the holder gave up before expiry; the
	// next acquire grants immediately.
	Released bool
}

// Held reports whether the lease is held at now: granted, not released,
// and not expired.
func (r Record) Held(now int64) bool {
	return r.Token > 0 && !r.Released && now < r.Expires
}

// Outcome classifies an Acquire decision; core maps outcomes to
// Stats.Lease counters.
type Outcome int

const (
	// Denied: the lease is held by a live other holder; the caller waits
	// (or retries until the TTL lapses).
	Denied Outcome = iota
	// Granted: fresh grant of a never-held or released lease.
	Granted
	// Renewed: the current holder extended its unexpired holdership; the
	// fencing token is kept.
	Renewed
	// ExpiryGrant: grant over a holdership whose TTL had lapsed — the
	// non-adaptive recovery path, paid for with a full TTL of waiting.
	ExpiryGrant
	// CrashGrant: grant over a holder the failure detector reports dead —
	// the RME-style adaptive path, costing one probe instead of a TTL.
	CrashGrant
)

// String renders an outcome for fingerprints and test failures.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Renewed:
		return "renewed"
	case ExpiryGrant:
		return "expiry-grant"
	case CrashGrant:
		return "crash-grant"
	default:
		return "denied"
	}
}

// Acquire decides an acquire request by holder at now for ttl nanoseconds
// against the current record. holderDead reports whether the current
// holder is known crashed (failure-detector visibility); it is consulted
// only when the lease is otherwise held. The returned record is the state
// to store when the outcome is not Denied (on Denied the current record is
// returned unchanged).
//
// Every fresh holdership — including the same node re-acquiring after its
// own lease expired — bumps the fencing token: writes buffered from the
// lapsed holdership must be distinguishable from the new one's at every
// store.
func Acquire(cur Record, holder string, now, ttl int64, holderDead bool) (Record, Outcome) {
	if cur.Holder == holder && cur.Held(now) {
		cur.Expires = now + ttl
		return cur, Renewed
	}
	grant := func(o Outcome) (Record, Outcome) {
		return Record{Holder: holder, Token: cur.Token + 1, Expires: now + ttl}, o
	}
	switch {
	case cur.Token == 0 || cur.Released:
		return grant(Granted)
	case now >= cur.Expires:
		return grant(ExpiryGrant)
	case holderDead:
		return grant(CrashGrant)
	}
	return cur, Denied
}

// Renew extends an unexpired holdership, checking the token so a renewal
// buffered from a deposed holdership cannot resurrect it. ok is false when
// the caller no longer holds the lease.
func Renew(cur Record, holder string, token uint64, now, ttl int64) (Record, bool) {
	if cur.Holder != holder || cur.Token != token || !cur.Held(now) {
		return cur, false
	}
	cur.Expires = now + ttl
	return cur, true
}

// Release gives the holdership up early (token-checked like Renew). ok is
// false when the caller no longer holds the lease; releasing an already
// expired holdership still succeeds (it only widens the next acquirer's
// options).
func Release(cur Record, holder string, token uint64) (Record, bool) {
	if cur.Holder != holder || cur.Token != token || token == 0 || cur.Released {
		return cur, false
	}
	cur.Released = true
	return cur, true
}

// KeyPrefix is the reserved hard-state key namespace lease records live
// under. It starts with the internal-namespace marker "\x00nk:" (state
// hides such keys from script-facing enumeration, and core refuses script
// writes to them) so a site script can neither shadow nor delete a lease
// record through the State vocabulary.
const KeyPrefix = "\x00nk:lease:"

// Key returns the hard-state key for the named per-site lease.
func Key(name string) string { return KeyPrefix + name }
