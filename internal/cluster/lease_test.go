package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nakika/internal/cluster/explore"
	"nakika/internal/core"
	"nakika/internal/lease"
	"nakika/internal/state"
)

// Deterministic acceptance scenarios for distributed leases: a holder is
// killed mid-critical-section and the heir takes over in O(1) messages when
// the crash is failure-detector-visible (strictly cheaper, in messages and
// virtual time, than the TTL-expiry path a silent holder forces); a deposed
// holder's buffered write is rejected with ErrFenced after the heir's first
// fenced write; and the narrowest grant edge — the lease record's acting
// owner dying between its WAL append and the replica acknowledgement —
// resolves to exactly one holdership. Every scenario runs on the simulated
// transport, so each seed fingerprints identically on repeat runs.

// leaseRecordOwner returns the membership ground-truth acting owner of the
// named lease's record.
func leaseRecordOwner(c *Cluster, site, name string) string {
	return c.Ring.Successor(state.ReplicaKey(site, lease.Key(name))).Name
}

// pickNode returns the first live node not in avoid.
func pickNode(c *Cluster, avoid ...string) string {
	for _, n := range c.Names() {
		if !c.Live(n) {
			continue
		}
		skip := false
		for _, a := range avoid {
			if n == a {
				skip = true
				break
			}
		}
		if !skip {
			return n
		}
	}
	return ""
}

// runLeaseHandoverScenario is the lease acceptance scenario. Returns a
// fingerprint of every deterministic observable.
func runLeaseHandoverScenario(t *testing.T, seed int64) string {
	t.Helper()
	c, err := New(Config{N: 5, Seed: seed, Latency: time.Millisecond, Persist: true}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)

	// --- Phase 1: crash-visible handover (the RME adaptive path). ---
	// The holder and heir are both chosen away from the lease record's
	// acting owner, so arbitration for each of them is one forwarded RPC.
	const job = "handover"
	owner1 := leaseRecordOwner(c, repSite, job)
	holderName := pickNode(c, owner1)
	heirName := pickNode(c, owner1, holderName)
	holder, heir := c.NodeByName(holderName), c.NodeByName(heirName)

	token1, ok := holder.LeaseAcquire(repSite, job, 10*time.Second)
	if !ok || token1 != 1 {
		t.Fatalf("holder acquire = (%d, %v), want (1, true)", token1, ok)
	}

	// The critical section: fenced writes under token 1. csKey is chosen so
	// the holder itself is not among its replicas — after the crash, every
	// store holding it stays live and hears the heir's floor-raising write.
	csKey := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("cs-%02d", i)
		if err := holder.FencedStatePut(repSite, k, "held-"+holderName, job, token1); err != nil {
			t.Fatalf("holder fenced write %s: %v", k, err)
		}
		inReplicas := false
		for _, h := range c.StateHolders(repSite, k) {
			if h == holderName {
				inReplicas = true
				break
			}
		}
		if !inReplicas {
			csKey = k
			break
		}
	}
	if csKey == "" {
		t.Fatal("no critical-section key replicated away from the holder")
	}

	// Kill the holder mid-section. The crash is detector-visible (the
	// overlay ping fails), so the heir's single acquire must be granted by
	// the adaptive path well before the 10s TTL could lapse.
	c.Crash(holderName)
	d0, t0 := c.Sim.Stats().Delivered, c.Sim.Now()
	token2, ok := heir.LeaseAcquire(repSite, job, 10*time.Second)
	msgsCrash, timeCrash := c.Sim.Stats().Delivered-d0, c.Sim.Now()-t0
	if !ok || token2 != token1+1 {
		t.Fatalf("heir acquire = (%d, %v), want (%d, true)", token2, ok, token1+1)
	}
	if st := c.NodeByName(owner1).Stats().Lease; st.CrashHandovers != 1 {
		t.Fatalf("owner crash handovers = %d, want 1 (stats %+v)", st.CrashHandovers, st)
	}
	// O(1): one forwarded acquire, one failed probe, one replicated grant —
	// a constant budget with plenty of slack, independent of the TTL.
	if msgsCrash > 24 {
		t.Fatalf("crash-visible handover took %d messages, want O(1) (<= 24)", msgsCrash)
	}

	// The heir's first fenced write overwrites a key of the deposed
	// critical section, raising the fence floor at every live store that
	// holds it.
	if err := heir.FencedStatePut(repSite, csKey, "heir-"+heirName, job, token2); err != nil {
		t.Fatalf("heir fenced write: %v", err)
	}

	// --- Phase 2: TTL-expiry handover (no crash to detect). ---
	// A second lease whose holder stays alive but silent: the heir can only
	// poll until the TTL lapses, paying messages and virtual time the
	// adaptive path never spends.
	// The lease name is picked so its record's acting owner is live (the
	// phase-1 holder is still down): arbitration stats land at the ground
	// truth owner instead of a failover successor.
	ttlJob, owner2 := "", ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("ttl-job-%02d", i)
		if o := leaseRecordOwner(c, repSite, name); o != holderName {
			ttlJob, owner2 = name, o
			break
		}
	}
	if ttlJob == "" {
		t.Fatal("no ttl lease record owned away from the crashed holder")
	}
	ttl := 50 * time.Millisecond
	holder2Name := pickNode(c, owner2, holderName)
	heir2Name := pickNode(c, owner2, holderName, holder2Name)
	token3, ok := c.NodeByName(holder2Name).LeaseAcquire(repSite, ttlJob, ttl)
	if !ok || token3 != 1 {
		t.Fatalf("ttl holder acquire = (%d, %v), want (1, true)", token3, ok)
	}
	d1, t1 := c.Sim.Stats().Delivered, c.Sim.Now()
	var token4 uint64
	polls := 0
	for ; polls < 500; polls++ {
		if tok, ok := c.NodeByName(heir2Name).LeaseAcquire(repSite, ttlJob, ttl); ok {
			token4 = tok
			break
		}
	}
	msgsTTL, timeTTL := c.Sim.Stats().Delivered-d1, c.Sim.Now()-t1
	if token4 != token3+1 {
		t.Fatalf("ttl heir token = %d after %d polls, want %d", token4, polls, token3+1)
	}
	if polls == 0 {
		t.Fatal("ttl heir was granted without ever being denied — the TTL path was not exercised")
	}
	if st := c.NodeByName(owner2).Stats().Lease; st.ExpiryHandovers != 1 || st.Denied == 0 {
		t.Fatalf("ttl owner stats = %+v, want 1 expiry handover after >= 1 denial", st)
	}

	// The metrics registry splits handovers by recovery path exactly as
	// the scenario drove them: the detector-visible crash on the phase-1
	// record owner, the TTL expiry on the phase-2 owner.
	expositionHas(t, c.NodeByName(owner1), `nakika_lease_handovers_total{path="crash"} 1`)
	expositionHas(t, c.NodeByName(owner2), `nakika_lease_handovers_total{path="expiry"} 1`)

	// The adaptive path is strictly cheaper than waiting out the TTL, in
	// messages and in virtual time.
	if msgsCrash >= msgsTTL {
		t.Fatalf("crash handover %d messages, ttl handover %d: adaptive path must be strictly cheaper", msgsCrash, msgsTTL)
	}
	if timeCrash >= timeTTL {
		t.Fatalf("crash handover %v, ttl handover %v: adaptive path must be strictly faster", timeCrash, timeTTL)
	}

	// --- Phase 3: the deposed holder's buffered write arrives late. ---
	// The holder restarts (its WAL replays the old holdership) and its
	// buffered critical-section write finally goes out, still under token
	// 1. The heir has already written under token 2, so every store holding
	// csKey fences the stale write off.
	c.Restart(holderName)
	c.StabilizeAll(6)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	err = c.NodeByName(holderName).FencedStatePut(repSite, csKey, "late-"+holderName, job, token1)
	if !errors.Is(err, core.ErrFenced) {
		t.Fatalf("deposed holder's late write: err = %v, want ErrFenced", err)
	}
	// The value everywhere is the heir's, never the deposed holder's.
	for _, h := range c.StateHolders(repSite, csKey) {
		if got, ok := c.NodeByName(h).StateGet(repSite, csKey); !ok || got != "heir-"+heirName {
			t.Fatalf("store %s holds %q (ok=%v), want the heir's write", h, got, ok)
		}
	}

	// Fingerprint every deterministic observable for the repeat-run check.
	var fp strings.Builder
	fmt.Fprintf(&fp, "owner1=%s holder=%s heir=%s cs=%s tokens=%d,%d,%d,%d", owner1, holderName, heirName, csKey, token1, token2, token3, token4)
	fmt.Fprintf(&fp, " crash=%d/%s ttl=%d/%s polls=%d", msgsCrash, timeCrash, msgsTTL, timeTTL, polls)
	for _, n := range c.Names() {
		st := c.NodeByName(n).Stats().Lease
		fmt.Fprintf(&fp, " %s:a=%d,r=%d,d=%d,ch=%d,eh=%d,fw=%d,fr=%d",
			n, st.Acquired, st.Renewed, st.Denied, st.CrashHandovers, st.ExpiryHandovers, st.FencedWrites, st.FencedRejects)
	}
	fmt.Fprintf(&fp, " holders=%v", c.StateHolders(repSite, csKey))
	return fp.String()
}

// TestLeaseHandoverDeterministic is the lease acceptance test: the
// kill-holder-mid-critical-section scenario holds its invariants — O(1)
// adaptive handover strictly cheaper than TTL expiry, deposed writes
// fenced — and produces an identical fingerprint on repeat runs, across 5
// seeds.
func TestLeaseHandoverDeterministic(t *testing.T) {
	for _, seed := range []int64{41, 42, 43, 44, 45} {
		seed := explore.Seed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			first := runLeaseHandoverScenario(t, seed)
			if again := runLeaseHandoverScenario(t, seed); again != first {
				t.Fatalf("seed %d diverged:\n%s\nvs\n%s", seed, first, again)
			}
		})
	}
}

// TestLeaseGrantOwnerDiesBeforeReplicaAck pins the narrowest grant edge:
// the lease record's acting owner appends the grant to its WAL, pushes it
// to a replica, and crashes before the acknowledgement returns. The grant
// is not acknowledged (the acquirer holds nothing), yet the record exists
// on the replica — recovery must resolve to exactly one holdership with
// the same token, never two.
func TestLeaseGrantOwnerDiesBeforeReplicaAck(t *testing.T) {
	seed := explore.Seed(51)
	c, err := New(Config{N: 5, Seed: seed, Latency: time.Millisecond, Persist: true}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)

	// A lease whose record the acquirer itself owns: arbitration is local,
	// so the WAL append happens with no message traffic before the replica
	// pushes — the crash window sits exactly between the two.
	job, victim := "", ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("grant-%02d", i)
		if o := leaseRecordOwner(c, repSite, name); o != "node-0" {
			job, victim = name, o
			break
		}
	}
	if job == "" {
		t.Fatal("no lease record owned away from node-0")
	}
	if err := c.Schedule(fmt.Sprintf("at %s crash %s", c.Sim.Now()+500*time.Microsecond, victim)); err != nil {
		t.Fatal(err)
	}
	if token, ok := c.NodeByName(victim).LeaseAcquire(repSite, job, time.Hour); ok {
		t.Fatalf("grant with owner dying before replica ack must not be acknowledged (got token %d)", token)
	}
	if c.Live(victim) {
		t.Fatal("crash never landed")
	}

	// The unacknowledged grant record surfaced on a replica: some live node
	// already holds it (at-least-once, same as data writes).
	surfaced := false
	for _, n := range c.Names() {
		if n == victim || !c.Live(n) {
			continue
		}
		if rec, ok := c.NodeByName(n).LeaseRecord(repSite, job); ok && rec.Holder == victim && rec.Token == 1 {
			surfaced = true
			break
		}
	}
	if !surfaced {
		t.Fatal("replica did not retain the in-flight grant record")
	}

	// While the victim is down, another node cannot steal the lease with a
	// fresh token race: the replicated record names the victim, the victim
	// is detector-visibly dead, so the heir is granted token 2 over it —
	// one holdership at a time, monotonic tokens.
	heir := pickNode(c, victim)
	token2, ok := c.NodeByName(heir).LeaseAcquire(repSite, job, time.Hour)
	if !ok || token2 != 2 {
		t.Fatalf("heir acquire over the half-granted record = (%d, %v), want (2, true)", token2, ok)
	}

	// The victim restarts, replays its WAL (which holds the token-1 grant
	// it never got credit for), and re-acquires: it must NOT resurrect
	// token 1 — the heir's holdership is live, so the victim is denied.
	c.Restart(victim)
	c.StabilizeAll(6)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if token, ok := c.NodeByName(victim).LeaseAcquire(repSite, job, time.Hour); ok {
		t.Fatalf("restarted victim stole the lease (token %d) from the live heir", token)
	}
	// And its token-1 writes are fenced once the heir has written.
	if err := c.NodeByName(heir).FencedStatePut(repSite, "grant-cs", "heir", job, token2); err != nil {
		t.Fatalf("heir fenced write: %v", err)
	}
	if err := c.NodeByName(victim).FencedStatePut(repSite, "grant-cs", "victim", job, 1); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("victim's token-1 write: err = %v, want ErrFenced", err)
	}
}
