package lease_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"nakika/internal/lease"
	"nakika/internal/state"
	"nakika/internal/store"
)

// Property-based exclusion test for the full lease + fencing stack: whatever
// seeded interleaving of acquires, renews, fenced writes, crashes, restarts,
// releases, and clock advances three nodes execute — including split-brain
// acquires where a partition hides the current lease record from an acting
// owner, so two holderships are granted the *same* fencing token — no two
// holderships may ever interleave fenced writes at any single store, and all
// stores must converge once repair runs.
//
// The model mirrors the deployed arbitration exactly: each node reads lease
// state from its OWN local store (an acting owner consults only its local
// copy), decides transitions with the pure lease state machine, and pushes
// the resulting record to whichever stores the op's delivery mask reaches —
// a dropped delivery is a partitioned replica and is how split brain enters.
// Fenced data writes flow through state.FencedPutVersioned, the same
// admission path core's replicas use, so the property exercises the
// (token, holder) floor logic end to end.
//
// Scenarios are seeded op tables in the internal/state lww_prop_test.go
// mold: ops apply sequentially (the table order IS the interleaving), each
// op is self-contained, so the shrinker can greedily drop ops and on
// failure report a minimal table as a Go literal replayable through
// TestLeaseExclusionReplay.

const exNodes = 3

// exOp is one generated step of the interleaving.
type exOp struct {
	// Kind: 'A' acquire, 'N' renew, 'W' fenced write, 'D' release,
	// 'C' crash, 'R' restart, 'T' clock advance.
	Kind byte
	// Node is the acting node (ignored for 'T').
	Node int
	// TTL is the lease TTL in virtual ticks ('A' and 'N').
	TTL int64
	// Dt is the clock advance in virtual ticks ('T').
	Dt int64
	// Delivery[r] < 0 drops the op's resulting record at store r (a
	// partitioned replica); >= 0 delivers it. Applies to the lease-record
	// writes of 'A'/'N'/'D' and the fenced data writes of 'W'.
	Delivery [exNodes]int
}

// exSession is one holdership: a grant a node believes it owns. Sessions
// get unique holder ids so a node re-acquiring after losing its lease is a
// distinct holdership — the exclusion property is between holderships, not
// node names.
type exSession struct {
	id    string
	token uint64
}

// exAdmit is one fenced write a store's floor admitted, in admission order.
type exAdmit struct {
	token  uint64
	holder string
}

// exWorld is the state of one run of a table.
type exWorld struct {
	stores   [exNodes]*state.Store
	now      int64
	crashed  [exNodes]bool
	sess     [exNodes]*exSession
	sessNode map[string]int // session id -> node, for failure-detector probes
	grants   int
	writes   int
	admitted [exNodes][]exAdmit
}

const (
	exSite    = "prop.example.org"
	exLease   = "job"
	exDataKey = "critical"
)

func exSeedOffset() int64 {
	if s := os.Getenv("NAKIKA_SEED_OFFSET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 0
}

func exNodeName(n int) string { return fmt.Sprintf("node-%d", n) }

// readLease reads the lease record from one store's local copy, exactly as
// an acting owner would.
func readLease(s *state.Store) lease.Record {
	_, _, deleted, value, ok := s.GetVersioned(exSite, lease.Key(exLease))
	if !ok || deleted {
		return lease.Record{}
	}
	rec, ok := lease.Decode(value)
	if !ok {
		return lease.Record{}
	}
	return rec
}

// putLease stores rec as a versioned lease record, versioned against the
// acting node's own copy (split-brain owners may assign colliding versions;
// the LWW origin tie-break converges them), delivered per the op's mask.
func putLease(t *testing.T, w *exWorld, op exOp, rec lease.Record) {
	t.Helper()
	ver, _, _, _, _ := w.stores[op.Node].GetVersioned(exSite, lease.Key(exLease))
	out := state.Rec{
		Site:   exSite,
		Key:    lease.Key(exLease),
		Ver:    ver + 1,
		Origin: exNodeName(op.Node),
		Value:  lease.Encode(rec),
	}
	for r := 0; r < exNodes; r++ {
		if op.Delivery[r] < 0 {
			continue
		}
		if _, err := w.stores[r].PutVersioned(out); err != nil {
			t.Fatalf("store %d lease put: %v", r, err)
		}
	}
}

// applyExOps plays a table from scratch and returns the resulting world.
func applyExOps(t *testing.T, ops []exOp) *exWorld {
	t.Helper()
	w := &exWorld{sessNode: make(map[string]int)}
	for r := range w.stores {
		kv, err := store.OpenLog(store.NewMemFS(), store.LogConfig{Quota: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		w.stores[r] = state.NewStoreBacked(kv)
	}
	for _, op := range ops {
		switch op.Kind {
		case 'T':
			w.now += op.Dt
		case 'C':
			w.crashed[op.Node] = true
			w.sess[op.Node] = nil
		case 'R':
			w.crashed[op.Node] = false
		case 'A':
			if w.crashed[op.Node] {
				continue
			}
			cur := readLease(w.stores[op.Node])
			holderDead := false
			if cur.Held(w.now) {
				if n, ok := w.sessNode[cur.Holder]; ok && w.crashed[n] {
					holderDead = true
				}
			}
			w.grants++
			id := fmt.Sprintf("%s#%d", exNodeName(op.Node), w.grants)
			rec, out := lease.Acquire(cur, id, w.now, op.TTL, holderDead)
			if out == lease.Denied {
				continue
			}
			w.sessNode[id] = op.Node
			w.sess[op.Node] = &exSession{id: id, token: rec.Token}
			putLease(t, w, op, rec)
		case 'N':
			s := w.sess[op.Node]
			if w.crashed[op.Node] || s == nil {
				continue
			}
			cur := readLease(w.stores[op.Node])
			rec, ok := lease.Renew(cur, s.id, s.token, w.now, op.TTL)
			if ok {
				putLease(t, w, op, rec)
			}
		case 'D':
			s := w.sess[op.Node]
			if w.crashed[op.Node] || s == nil {
				continue
			}
			cur := readLease(w.stores[op.Node])
			rec, ok := lease.Release(cur, s.id, s.token)
			if ok {
				putLease(t, w, op, rec)
			}
			w.sess[op.Node] = nil
		case 'W':
			s := w.sess[op.Node]
			if w.crashed[op.Node] || s == nil {
				continue
			}
			w.writes++
			ver, _, _, _, _ := w.stores[op.Node].GetVersioned(exSite, exDataKey)
			rec := state.Rec{
				Site:   exSite,
				Key:    exDataKey,
				Ver:    ver + 1,
				Origin: exNodeName(op.Node),
				Value:  fmt.Sprintf("w%d-%s", w.writes, s.id),
			}
			for r := 0; r < exNodes; r++ {
				if op.Delivery[r] < 0 {
					continue
				}
				_, err := w.stores[r].FencedPutVersioned(rec, lease.Key(exLease), s.id, s.token)
				switch {
				case err == nil:
					w.admitted[r] = append(w.admitted[r], exAdmit{token: s.token, holder: s.id})
				case errors.Is(err, store.ErrFencedStale):
					// Fenced off: the deposed holdership's write was rejected.
				default:
					t.Fatalf("store %d fenced put: %v", r, err)
				}
			}
		default:
			t.Fatalf("unknown op kind %q", op.Kind)
		}
	}
	return w
}

// exViolation checks the exclusion property over a run's admission logs:
// at every store, admitted fencing tokens must be non-decreasing and each
// token must belong to exactly one holdership — together, no two
// holderships ever interleave fenced writes at any store. Returns "" when
// the property holds.
func exViolation(w *exWorld) string {
	for r := range w.admitted {
		var last uint64
		owner := make(map[uint64]string)
		for i, ad := range w.admitted[r] {
			if ad.token < last {
				return fmt.Sprintf("store %d admitted token %d after %d (log %v)", r, ad.token, last, w.admitted[r][:i+1])
			}
			last = ad.token
			if prev, ok := owner[ad.token]; ok && prev != ad.holder {
				return fmt.Sprintf("store %d admitted token %d for both %s and %s (log %v)", r, ad.token, prev, ad.holder, w.admitted[r][:i+1])
			}
			owner[ad.token] = ad.holder
		}
	}
	return ""
}

// exDivergence runs the final repair exchange (every store pushes every
// versioned record to every other, twice — what RepairReplication achieves
// with the whole ring reachable) and reports the first key the stores then
// disagree on, or "".
func exDivergence(t *testing.T, w *exWorld) string {
	t.Helper()
	for round := 0; round < 2; round++ {
		for src := range w.stores {
			for dst := range w.stores {
				if src == dst {
					continue
				}
				for _, rec := range w.stores[src].VersionedRecords(nil) {
					if _, err := w.stores[dst].PutVersioned(rec); err != nil {
						t.Fatalf("repair %d->%d %v: %v", src, dst, rec, err)
					}
				}
			}
		}
	}
	keys := make(map[string]struct{})
	for r := range w.stores {
		for _, rec := range w.stores[r].VersionedRecords(nil) {
			keys[rec.Key] = struct{}{}
		}
	}
	for key := range keys {
		var states []string
		for r := range w.stores {
			ver, origin, deleted, value, ok := w.stores[r].GetVersioned(exSite, key)
			states = append(states, fmt.Sprintf("r%d=(%d,%s,%v,%q,%v)", r, ver, origin, deleted, value, ok))
		}
		for _, s := range states[1:] {
			if s[3:] != states[0][3:] {
				return fmt.Sprintf("%q: %s", key, strings.Join(states, " "))
			}
		}
	}
	return ""
}

// exFailure runs a table end to end and reports the first property failure.
func exFailure(t *testing.T, ops []exOp) string {
	t.Helper()
	w := applyExOps(t, ops)
	if v := exViolation(w); v != "" {
		return "exclusion: " + v
	}
	if d := exDivergence(t, w); d != "" {
		return "divergence: " + d
	}
	return ""
}

// genExOps builds a random interleaving over exNodes nodes: a healthy mix
// of acquires (racing, and partitioned into split brain by dropped
// deliveries), fenced writes, renews, releases, crashes, restarts, and
// clock advances that outlive the short TTLs.
func genExOps(rnd *rand.Rand, n int) []exOp {
	ops := make([]exOp, 0, n)
	for i := 0; i < n; i++ {
		var op exOp
		op.Node = rnd.Intn(exNodes)
		for r := 0; r < exNodes; r++ {
			if rnd.Float64() < 0.25 {
				op.Delivery[r] = -1 // partitioned away from store r
			} else {
				op.Delivery[r] = rnd.Intn(1 << 20)
			}
		}
		switch k := rnd.Float64(); {
		case k < 0.28:
			op.Kind = 'A'
			op.TTL = int64(50 + rnd.Intn(150))
		case k < 0.60:
			op.Kind = 'W'
		case k < 0.70:
			op.Kind = 'N'
			op.TTL = int64(50 + rnd.Intn(150))
		case k < 0.78:
			op.Kind = 'D'
		case k < 0.85:
			op.Kind = 'C'
		case k < 0.90:
			op.Kind = 'R'
		default:
			op.Kind = 'T'
			op.Dt = int64(10 + rnd.Intn(120))
		}
		ops = append(ops, op)
	}
	return ops
}

// shrinkExOps greedily removes ops while the failure reproduces.
func shrinkExOps(t *testing.T, ops []exOp) []exOp {
	t.Helper()
	cur := append([]exOp(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]exOp(nil), cur[:i]...), cur[i+1:]...)
			if exFailure(t, cand) != "" {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur
}

// formatExOps renders a table as a Go literal for the replay test.
func formatExOps(ops []exOp) string {
	var sb strings.Builder
	sb.WriteString("[]exOp{\n")
	for _, op := range ops {
		fmt.Fprintf(&sb, "\t{Kind: '%c', Node: %d, TTL: %d, Dt: %d, Delivery: [%d]int{%d, %d, %d}},\n",
			op.Kind, op.Node, op.TTL, op.Dt, exNodes, op.Delivery[0], op.Delivery[1], op.Delivery[2])
	}
	sb.WriteString("}")
	return sb.String()
}

// TestLeaseExclusionProperty generates seeded random interleavings of
// lease operations across three nodes and asserts the fenced-write
// exclusion property plus post-repair convergence; a failure is shrunk to
// a minimal table and printed as a replayable literal for
// TestLeaseExclusionReplay.
func TestLeaseExclusionProperty(t *testing.T) {
	base := int64(11000) + exSeedOffset()
	for iter := int64(0); iter < 64; iter++ {
		seed := base + iter
		rnd := rand.New(rand.NewSource(seed))
		ops := genExOps(rnd, 8+rnd.Intn(60))
		if f := exFailure(t, ops); f != "" {
			minimal := shrinkExOps(t, ops)
			t.Fatalf("seed %d failed: %s\nminimal failing table (replay via TestLeaseExclusionReplay):\n%s",
				seed, f, formatExOps(minimal))
		}
	}
}

// TestLeaseExclusionReplay replays pinned tables through the same harness:
// the regression slot for any table the shrinker ever reports, pre-seeded
// with the adversarial interleavings the fencing rules must get right.
func TestLeaseExclusionReplay(t *testing.T) {
	tables := map[string][]exOp{
		// Split brain double-grants the SAME token: node 0's grant reaches
		// only store 0, so node 1's acting owner sees no lease and also
		// grants token 1. Both holderships then write everywhere; at every
		// single store the (token, holder) floor lets exactly one of them
		// claim token 1 — the other is fenced.
		"split-brain-same-token": {
			{Kind: 'A', Node: 0, TTL: 100, Delivery: [3]int{0, -1, -1}},
			{Kind: 'A', Node: 1, TTL: 100, Delivery: [3]int{-1, 0, -1}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 1, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
		},
		// A deposed holder's buffered write arrives after the heir's first
		// fenced write: node 0's TTL lapses, node 1 takes over by expiry
		// with token 2 and writes, then node 0's late token-1 write lands —
		// it must be rejected at every store that admitted token 2.
		"deposed-late-write": {
			{Kind: 'A', Node: 0, TTL: 50, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
			{Kind: 'T', Dt: 80},
			{Kind: 'A', Node: 1, TTL: 100, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 1, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
		},
		// Crash, adaptive recovery, then the crashed node restarts and
		// re-acquires after the heir's own lease expires: three holderships
		// with strictly increasing tokens, none interleaving.
		"crash-recover-expiry": {
			{Kind: 'A', Node: 0, TTL: 100, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
			{Kind: 'C', Node: 0},
			{Kind: 'A', Node: 1, TTL: 100, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 1, Delivery: [3]int{0, 0, 0}},
			{Kind: 'R', Node: 0},
			{Kind: 'T', Dt: 150},
			{Kind: 'A', Node: 0, TTL: 100, Delivery: [3]int{0, 0, 0}},
			{Kind: 'W', Node: 0, Delivery: [3]int{0, 0, 0}},
		},
		// Release/renew race under the total LWW order: node 0 releases but
		// the release only reaches store 0; node 1 acquires off store 1's
		// stale held record view only after expiry. Repair must converge the
		// lease record everywhere despite the racing versions.
		"release-partitioned": {
			{Kind: 'A', Node: 0, TTL: 60, Delivery: [3]int{0, 0, 0}},
			{Kind: 'N', Node: 0, TTL: 60, Delivery: [3]int{0, -1, -1}},
			{Kind: 'D', Node: 0, Delivery: [3]int{0, -1, -1}},
			{Kind: 'A', Node: 1, TTL: 100, Delivery: [3]int{-1, 0, 0}},
			{Kind: 'W', Node: 1, Delivery: [3]int{0, 0, 0}},
		},
	}
	for name, ops := range tables {
		name, ops := name, ops
		t.Run(name, func(t *testing.T) {
			if f := exFailure(t, ops); f != "" {
				t.Fatalf("pinned table failed: %s", f)
			}
		})
	}

	// The split-brain table's exact arbitration: both holderships hold
	// token 1, and at every store exactly one of them is admitted — the
	// first to write there — while the other is fenced despite carrying an
	// equal token.
	w := applyExOps(t, tables["split-brain-same-token"])
	for r := range w.admitted {
		if len(w.admitted[r]) == 0 {
			t.Fatalf("store %d admitted no fenced writes", r)
		}
		first := w.admitted[r][0]
		if first.token != 1 {
			t.Fatalf("store %d first admission token = %d, want 1", r, first.token)
		}
		for _, ad := range w.admitted[r][1:] {
			if ad.holder != first.holder {
				t.Fatalf("store %d admitted both %s and %s for token 1", r, first.holder, ad.holder)
			}
		}
	}

	// The deposed-late-write table: the heir's token 2 is the floor at
	// every store, and node 0's late token-1 write was admitted nowhere
	// after it.
	w = applyExOps(t, tables["deposed-late-write"])
	for r := range w.admitted {
		log := w.admitted[r]
		if len(log) == 0 || log[len(log)-1].token != 2 {
			t.Fatalf("store %d admission log %v, want it to end at the heir's token 2", r, log)
		}
		token, holder := w.stores[r].Backend().FenceToken(exSite, lease.Key(exLease))
		if token != 2 {
			t.Fatalf("store %d floor = (%d, %s), want the heir's token 2", r, token, holder)
		}
	}
}
