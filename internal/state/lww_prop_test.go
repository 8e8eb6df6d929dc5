package state

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nakika/internal/cluster/explore"
)

// Property-based convergence test for the last-writer-wins merge rules:
// whatever interleaving of puts, deletes, and repair pushes three replicas
// see, they must converge to the same (ver, origin, tombstone, value)
// winner for every key once all records have been delivered everywhere.
// This pins the PR 4 merge rules against every path that applies records —
// synchronous replication pushes, failover reads, churn handoff streams,
// repair passes, and the hedged-read path, all of which funnel through
// Store.PutVersioned.
//
// Scenarios are seeded tables of operations; each op carries an explicit
// per-replica delivery priority, so each replica applies the same multiset
// of records in its own deterministic order (a randomized interleaving)
// and dropping an op never reshuffles the others — which is what makes the
// shrinker sound: on failure it greedily removes ops while the failure
// reproduces, then reports the minimal table as a replayable Go literal.

const lwwReplicas = 3

// lwwOp is one generated operation: a versioned record plus its delivery
// order at each replica. Delivery[i] < 0 means replica i never receives
// the record directly (it must still converge through the final repair
// exchange).
type lwwOp struct {
	Rec      Rec
	Delivery [lwwReplicas]int
}

// genOps builds a random operation table: a handful of keys, racing
// versions from several origins (including exact (ver, origin) ties and
// tie-broken duplicates), with a healthy fraction of tombstones.
func genOps(rnd *rand.Rand, n int) []lwwOp {
	origins := []string{"node-a", "node-b", "node-c", "node-d"}
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	ops := make([]lwwOp, 0, n)
	for i := 0; i < n; i++ {
		rec := Rec{
			Site:   "prop.example.org",
			Key:    keys[rnd.Intn(len(keys))],
			Ver:    uint64(1 + rnd.Intn(6)),
			Origin: origins[rnd.Intn(len(origins))],
			Delete: rnd.Float64() < 0.25,
		}
		if !rec.Delete {
			rec.Value = fmt.Sprintf("v%d-%s-%d", rec.Ver, rec.Origin, rnd.Intn(3))
		}
		var op lwwOp
		op.Rec = rec
		for r := 0; r < lwwReplicas; r++ {
			if rnd.Float64() < 0.2 {
				op.Delivery[r] = -1 // missed delivery: repair must cover it
			} else {
				op.Delivery[r] = rnd.Intn(1 << 20)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// applyOps plays the table against fresh replicas: each replica applies
// the ops delivered to it in priority order, then a full repair exchange
// pushes every replica's current records to every other (exactly what
// RepairReplication does with the whole ring reachable).
func applyOps(ops []lwwOp) [lwwReplicas]*Store {
	var stores [lwwReplicas]*Store
	for r := range stores {
		stores[r] = newStore(1 << 20)
		idx := make([]int, 0, len(ops))
		for i, op := range ops {
			if op.Delivery[r] >= 0 {
				idx = append(idx, i)
			}
		}
		r := r
		sortStable(idx, func(a, b int) bool {
			da, db := ops[a].Delivery[r], ops[b].Delivery[r]
			if da != db {
				return da < db
			}
			return a < b
		})
		for _, i := range idx {
			if _, err := putNow(stores[r], ops[i].Rec); err != nil {
				panic(fmt.Sprintf("replica %d apply %v: %v", r, ops[i].Rec, err))
			}
		}
	}
	// Repair: two full rounds of everyone-pushes-everything guarantee
	// delivery of every record to every replica regardless of direction.
	for round := 0; round < 2; round++ {
		for src := range stores {
			for dst := range stores {
				if src == dst {
					continue
				}
				for _, rec := range stores[src].VersionedRecords(nil) {
					if _, err := putNow(stores[dst], rec); err != nil {
						panic(fmt.Sprintf("repair %d->%d %v: %v", src, dst, rec, err))
					}
				}
			}
		}
	}
	return stores
}

// sortStable is a tiny stable insertion sort (the tables are small and it
// avoids importing sort for a closure-index sort).
func sortStable(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// divergence returns a description of the first key on which the replicas
// disagree, or "" when they all converged.
func divergence(stores [lwwReplicas]*Store) string {
	keys := make(map[string]struct{})
	for r := range stores {
		for _, rec := range stores[r].VersionedRecords(nil) {
			keys[rec.Site+"/"+rec.Key] = struct{}{}
		}
	}
	for sk := range keys {
		parts := strings.SplitN(sk, "/", 2)
		var states []string
		for r := range stores {
			ver, origin, deleted, value, ok := stores[r].GetVersioned(parts[0], parts[1])
			states = append(states, fmt.Sprintf("r%d=(%d,%s,%v,%q,%v)", r, ver, origin, deleted, value, ok))
		}
		for _, s := range states[1:] {
			if s[3:] != states[0][3:] {
				return sk + ": " + strings.Join(states, " ")
			}
		}
	}
	return ""
}

// lwwWinners is the oracle the merge rule must agree with, computed without
// Supersedes: for each key, the greatest record delivered to any replica,
// ordered by version, then origin, then a delete over a put, then value.
func lwwWinners(ops []lwwOp) map[string]Rec {
	win := make(map[string]Rec)
	for _, op := range ops {
		if slices.Max(op.Delivery[:]) < 0 {
			continue // written nowhere
		}
		r := op.Rec
		cur, ok := win[r.Site+"/"+r.Key]
		if !ok || cmp.Or(cmp.Compare(r.Ver, cur.Ver), cmp.Compare(r.Origin, cur.Origin),
			cmp.Compare(lwwDeletes(r), lwwDeletes(cur)), cmp.Compare(r.Value, cur.Value)) > 0 {
			win[r.Site+"/"+r.Key] = r
		}
	}
	return win
}

func lwwDeletes(r Rec) int {
	if r.Delete {
		return 1
	}
	return 0
}

// lwwFailure plays a table and describes where the replicas diverge, or
// where they agree on another record than the oracle's winner, or returns "".
func lwwFailure(ops []lwwOp) string {
	stores := applyOps(ops)
	if d := divergence(stores); d != "" {
		return d
	}
	for sk, want := range lwwWinners(ops) {
		ver, origin, deleted, value, ok := stores[0].GetVersioned(want.Site, want.Key)
		if got := (Rec{Site: want.Site, Key: want.Key, Ver: ver, Origin: origin, Delete: deleted, Value: value}); !ok || got != want {
			return fmt.Sprintf("%s: the replicas hold (%d,%s,%v,%q,%v), the oracle's winner is (%d,%s,%v,%q)",
				sk, ver, origin, deleted, value, ok, want.Ver, want.Origin, want.Delete, want.Value)
		}
	}
	return ""
}

// TestLWWConvergenceProperty generates seeded random interleavings and
// asserts three replicas always converge, on the winner the oracle
// (lwwWinners) picks for each key; a failure is shrunk to a minimal table
// and printed as a replayable literal for TestLWWConvergenceReplay.
func TestLWWConvergenceProperty(t *testing.T) {
	explore.Property[lwwOp]{
		Seed: 9000, Runs: 64,
		Gen:   func(rnd *rand.Rand) []lwwOp { return genOps(rnd, 3+rnd.Intn(40)) },
		Check: lwwFailure,
		Type:  "lwwOp",
		Print: func(op lwwOp) string {
			return fmt.Sprintf("{Rec: Rec{Site: %q, Key: %q, Ver: %d, Origin: %q, Delete: %v, Value: %q}, Delivery: [%d]int{%d, %d, %d}}",
				op.Rec.Site, op.Rec.Key, op.Rec.Ver, op.Rec.Origin, op.Rec.Delete, op.Rec.Value,
				lwwReplicas, op.Delivery[0], op.Delivery[1], op.Delivery[2])
		},
		Replay: "TestLWWConvergenceReplay",
	}.Run(t)
}

// TestLWWConvergenceReplay replays pinned tables through the same harness:
// the regression slot for any table the shrinker ever reports, pre-seeded
// with the adversarial cases the merge rules must get right.
func TestLWWConvergenceReplay(t *testing.T) {
	tables := map[string][]lwwOp{
		// A delete and a put racing at the same version from different
		// origins: the higher origin must win everywhere, whatever order
		// the two arrive in.
		"tie-broken-delete": {
			{Rec: Rec{Site: "prop.example.org", Key: "k0", Ver: 2, Origin: "node-b", Delete: true}, Delivery: [3]int{0, 1, -1}},
			{Rec: Rec{Site: "prop.example.org", Key: "k0", Ver: 2, Origin: "node-c", Value: "live"}, Delivery: [3]int{1, 0, -1}},
		},
		// An exact duplicate record delivered in different orders around a
		// newer version: the newer version wins and the duplicate applies
		// idempotently.
		"duplicate-around-newer": {
			{Rec: Rec{Site: "prop.example.org", Key: "k1", Ver: 1, Origin: "node-a", Value: "old"}, Delivery: [3]int{0, 2, 0}},
			{Rec: Rec{Site: "prop.example.org", Key: "k1", Ver: 3, Origin: "node-a", Value: "new"}, Delivery: [3]int{1, 1, -1}},
			{Rec: Rec{Site: "prop.example.org", Key: "k1", Ver: 1, Origin: "node-a", Value: "old"}, Delivery: [3]int{2, 0, 1}},
		},
		// A tombstone nobody but one replica saw: repair must spread it and
		// it must keep beating the lower-versioned put it shadows.
		"lonely-tombstone": {
			{Rec: Rec{Site: "prop.example.org", Key: "k2", Ver: 1, Origin: "node-d", Value: "doomed"}, Delivery: [3]int{0, 0, 0}},
			{Rec: Rec{Site: "prop.example.org", Key: "k2", Ver: 2, Origin: "node-a", Delete: true}, Delivery: [3]int{-1, -1, 1}},
		},
	}
	explore.Replay(t, tables, lwwFailure)
	// The tie-broken-delete table must converge to the higher origin's put.
	stores := applyOps(tables["tie-broken-delete"])
	for r := range stores {
		ver, origin, deleted, value, ok := stores[r].GetVersioned("prop.example.org", "k0")
		if !ok || deleted || origin != "node-c" || ver != 2 || value != "live" {
			t.Fatalf("replica %d = (%d,%s,%v,%q,%v), want the node-c put to win the tie", r, ver, origin, deleted, value, ok)
		}
	}
}
