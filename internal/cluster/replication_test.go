package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"nakika/internal/cluster/explore"
	"nakika/internal/core"
	"nakika/internal/state"
	"nakika/internal/transport"
)

const repSite = "app.example.org"

func burstKey(i int) string { return fmt.Sprintf("burst-%04d", i) }
func burstVal(i int) string { return fmt.Sprintf("value-%04d-%s", i, strings.Repeat("r", 64)) }

// bootReplicated builds a cluster with successor replication and runs
// four maintenance rounds.
func bootReplicated(t *testing.T, n int, seed int64, k int) *Cluster {
	t.Helper()
	c, err := New(Config{N: n, Seed: seed, Latency: time.Millisecond, Replication: k}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	return c
}

// runReplicationFailoverScenario is the replication acceptance scenario:
// an 8-node ring with factor-3 successor replication,
// a hard-state write burst issued at one entry node, and the owner of the
// burst's first forwarded key crashed at a virtual time that lands inside
// the burst. Every write acknowledged before, during, or after the crash
// must remain readable (reads failing over to replicas while the owner is
// dead), churn-triggered repair must restore three live copies of
// every key, and the restarted owner must stream its range back. Returns
// a fingerprint of every deterministic observable.
func runReplicationFailoverScenario(t *testing.T, seed int64) string {
	t.Helper()
	// The seed shapes the scenario (entry node, burst size) in addition to
	// seeding the simulated network, so the nightly seed sweep exercises
	// genuinely different write/ownership patterns.
	nKeys := 80 + int(((seed%13)+13)%13)
	c := bootReplicated(t, 8, seed, 0) // factor 0 = node default of 3

	entry := fmt.Sprintf("node-%d", ((seed%8)+8)%8)
	node := c.NodeByName(entry)
	victim := ""
	for i := 0; i < nKeys; i++ {
		if o := c.Ring.Successor(state.ReplicaKey(repSite, burstKey(i))).Name; o != entry {
			victim = o
			break
		}
	}
	if victim == "" {
		t.Fatal("no key owned away from the entry node")
	}
	if err := c.Schedule(fmt.Sprintf("at %s crash %s", c.Sim.Now()+120*time.Millisecond, victim)); err != nil {
		t.Fatal(err)
	}

	// The burst: sequential writes through the entry node. Replication
	// traffic advances the virtual clock, so the scripted crash lands
	// mid-burst; the write in flight at that instant may fail
	// (unacknowledged), and later writes to the dead owner's keys must
	// fail over to its first live successor.
	acked := make(map[string]string)
	crashIdx := -1
	for i := 0; i < nKeys; i++ {
		if err := node.StatePut(repSite, burstKey(i), burstVal(i)); err == nil {
			acked[burstKey(i)] = burstVal(i)
		}
		if crashIdx < 0 && !c.Live(victim) {
			crashIdx = i
		}
	}
	if crashIdx <= 0 || crashIdx >= nKeys-1 {
		t.Fatalf("crash did not land mid-burst (landed at write %d of %d)", crashIdx, nKeys)
	}
	ackedKeys := make([]string, 0, len(acked))
	for k := range acked {
		ackedKeys = append(ackedKeys, k)
	}
	sort.Strings(ackedKeys)

	// Zero loss: with the owner still dead, every acknowledged write is
	// readable from a second node — reads route to the acting owner and
	// fail over to replicas for the victim's keys.
	reader := ""
	for _, n := range c.Names() {
		if n != entry && n != victim {
			reader = n
			break
		}
	}
	for _, key := range ackedKeys {
		got, ok := c.NodeByName(reader).StateGet(repSite, key)
		if !ok || got != acked[key] {
			t.Fatalf("acknowledged write %s lost with owner dead (ok=%v)", key, ok)
		}
	}
	// Key enumeration agrees with reads: the cluster-wide listing covers
	// every acknowledged key even with the owner dead.
	listed := make(map[string]bool)
	for _, k := range c.NodeByName(reader).StateKeys(repSite) {
		listed[k] = true
	}
	for _, key := range ackedKeys {
		if !listed[key] {
			t.Fatalf("acknowledged key %s missing from cluster-wide StateKeys", key)
		}
	}

	// A ping round suspects the dead owner and triggers repair: every
	// acknowledged key must be back to 3 live copies.
	c.StabilizeAll(6)
	for _, key := range ackedKeys {
		holders := c.StateHolders(repSite, key)
		if len(holders) < 3 {
			t.Fatalf("key %s has %d live copies after repair, want >= 3 (%v)", key, len(holders), holders)
		}
		for _, h := range holders {
			if h == victim {
				t.Fatalf("dead node %s counted as holder of %s", victim, key)
			}
		}
	}

	// The victim restarts empty (no persistence) and streams the range it
	// owns back from its successors; afterwards it serves every
	// acknowledged write again, including the ones written while it was
	// dead.
	c.Restart(victim)
	c.StabilizeAll(6)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, key := range ackedKeys {
		got, ok := c.NodeByName(victim).StateGet(repSite, key)
		if !ok || got != acked[key] {
			t.Fatalf("key %s unreadable from restarted owner (ok=%v)", key, ok)
		}
	}

	// Fingerprint every deterministic observable for the repeat-run check.
	var fp strings.Builder
	fmt.Fprintf(&fp, "victim=%s crashIdx=%d acked=%d", victim, crashIdx, len(acked))
	for _, key := range ackedKeys {
		fmt.Fprintf(&fp, " %s:%v", key, c.StateHolders(repSite, key))
	}
	for _, n := range c.Names() {
		st := c.NodeByName(n).Stats().Replication
		fmt.Fprintf(&fp, " %s:fwd=%d,push=%d,fo=%d,app=%d,keys=%d",
			n, st.ForwardedOps, st.ReplicaPushes, st.FailoverReads, st.RecordsApplied,
			len(c.NodeByName(n).StateKeys(repSite)))
	}
	return fp.String()
}

// TestReplicationFailoverDeterministic is the replication acceptance
// test: the kill-owner-mid-burst scenario holds its invariants and
// produces an identical fingerprint on repeat runs, across 5 seeds.
func TestReplicationFailoverDeterministic(t *testing.T) {
	for _, seed := range []int64{21, 22, 23, 24, 25} {
		seed := explore.Seed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			first := runReplicationFailoverScenario(t, seed)
			if again := runReplicationFailoverScenario(t, seed); again != first {
				t.Fatalf("seed %d diverged:\n%s\nvs\n%s", seed, first, again)
			}
		})
	}
}

// TestOwnerDiesBetweenWALAppendAndReplicaAck pins the narrowest failover
// edge: the acting owner appends the write to its WAL, pushes it to its
// first replica, and crashes before the replica's acknowledgement gets
// back. The client must see an error (the write was never acknowledged),
// yet the replica holds the record — an at-least-once surface the
// restarted owner reconciles to the same version on recovery.
func TestOwnerDiesBetweenWALAppendAndReplicaAck(t *testing.T) {
	seed := explore.Seed(31)
	c, err := New(Config{N: 5, Seed: seed, Latency: time.Millisecond, Persist: true}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)

	// A key owned by a node other than node-0, written at its owner so the
	// local WAL append happens with no message traffic before the pushes.
	key, victim := "", ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("edge-%02d", i)
		if o := c.Ring.Successor(state.ReplicaKey(repSite, k)).Name; o != "node-0" {
			key, victim = k, o
			break
		}
	}
	owner := c.NodeByName(victim)

	// The crash is scheduled inside the first replica push's delivery
	// window: the push arrives (the replica applies the record), but the
	// acknowledgement traversal back finds the owner dead.
	if err := c.Schedule(fmt.Sprintf("at %s crash %s", c.Sim.Now()+500*time.Microsecond, victim)); err != nil {
		t.Fatal(err)
	}
	if err := owner.StatePut(repSite, key, "edge-value"); err == nil {
		t.Fatal("write with owner dying before replica ack must not be acknowledged")
	}
	if c.Live(victim) {
		t.Fatal("crash never landed")
	}

	// The unacknowledged write surfaced on the replica (at-least-once):
	// failover reads serve it.
	if got, ok := c.NodeByName("node-0").StateGet(repSite, key); !ok || got != "edge-value" {
		t.Fatalf("replica did not retain the in-flight write (ok=%v, got %q)", ok, got)
	}

	// The owner's WAL also retained it; after restart and repair every
	// live holder agrees on version and value.
	c.Restart(victim)
	c.StabilizeAll(6)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	holders := c.StateHolders(repSite, key)
	if len(holders) < 3 {
		t.Fatalf("holders after recovery = %v, want >= 3", holders)
	}
	var wantVer uint64
	for i, h := range holders {
		ver, val, _, ok := c.NodeByName(h).LocalStateRecord(repSite, key)
		if !ok || val != "edge-value" {
			t.Fatalf("holder %s diverged (ok=%v val=%q)", h, ok, val)
		}
		if i == 0 {
			wantVer = ver
		} else if ver != wantVer {
			t.Fatalf("holder %s at version %d, want %d", h, ver, wantVer)
		}
	}
}

// crashOnFirstChunk is a joining node's transport: right after the first
// rep.sync reply reaches the joiner, it crashes the node that sent it.
type crashOnFirstChunk struct {
	transport.Transport
	c      *Cluster
	source string // the node crashed
	chunks int    // rep.sync replies received
}

func (w *crashOnFirstChunk) Call(from, to string, msg transport.Message) (transport.Message, error) {
	reply, err := w.Transport.Call(from, to, msg)
	if err == nil && msg.Type == "rep.sync" {
		if w.chunks++; w.source == "" {
			w.source = to
			w.c.Crash(to)
		}
	}
	return reply, err
}

// TestReplicaPromotedDuringHandoffStream: a joining node's first
// maintenance round syncs the key range it now owns with its successor, a
// chunk of records per exchange; the source crashes right after its first
// reply, promoting the next replica to acting owner, and the joiner syncs
// the range with that replica instead, with nothing lost.
func TestReplicaPromotedDuringHandoffStream(t *testing.T) {
	seed := explore.Seed(33)
	w := &crashOnFirstChunk{}
	c, err := New(Config{N: 6, Seed: seed, Latency: time.Millisecond, Replication: 3,
		Mutate: func(i int, cfg *core.Config) {
			if i == 6 { // the joiner
				w.Transport = cfg.Ring.Transport
				cfg.Transport = w
			}
		}}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	w.c = c
	c.StabilizeAll(4)

	// Enough keys that the joiner's future range spans at least three
	// chunks (the set is fixed by the hash, so this is deterministic).
	entry := c.NodeByName("node-0")
	vals := make(map[string]string)
	for i := 0; i < 1600; i++ {
		k, v := burstKey(i), burstVal(i)
		if err := entry.StatePut(repSite, k, v); err != nil {
			t.Fatalf("write %s: %v", k, err)
		}
		vals[k] = v
	}
	joiner, err := c.AddNode(NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	jn := c.NodeByName(joiner)

	c.StabilizeAll(1) // the joiner's first round runs its catch-up
	if w.source == "" || c.Live(w.source) {
		t.Fatalf("handoff source %q never crashed; stream was not interrupted", w.source)
	}
	if w.chunks < 3 {
		t.Fatalf("handoff took %d chunks, want at least 3", w.chunks)
	}
	if jn.Stats().CatchUp.Pending {
		t.Fatal("joiner still owes its catch-up after its first round")
	}
	expositionHas(t, jn, `nakika_replication_repairs_total{trigger="catchup"} 1`)
	for k, v := range vals {
		if c.Ring.Successor(state.ReplicaKey(repSite, k)).Name != joiner {
			continue
		}
		if _, val, deleted, ok := jn.LocalStateRecord(repSite, k); !ok || deleted || val != v {
			t.Fatalf("joiner missing owned key %s after interrupted handoff (ok=%v)", k, ok)
		}
	}

	// The cluster converges around both events (join + crash): every
	// acknowledged write stays readable.
	c.StabilizeAll(6)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := entry.StateGet(repSite, k); !ok || got != vals[k] {
			t.Fatalf("key %s unreadable after join + source crash (ok=%v)", k, ok)
		}
	}
}

// TestJoinHandoffViaStabilize: a joiner owes a catch-up, and its first
// maintenance round streams its owned range without any explicit pull.
func TestJoinHandoffViaStabilize(t *testing.T) {
	seed := explore.Seed(34)
	c := bootReplicated(t, 6, seed, 3)
	entry := c.NodeByName("node-0")
	vals := make(map[string]string)
	for i := 0; i < 80; i++ {
		k, v := burstKey(i), burstVal(i)
		if err := entry.StatePut(repSite, k, v); err != nil {
			t.Fatal(err)
		}
		vals[k] = v
	}
	joiner, err := c.AddNode(NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(6)
	for k, v := range vals {
		if c.Ring.Successor(state.ReplicaKey(repSite, k)).Name != joiner {
			continue
		}
		_, val, deleted, ok := c.NodeByName(joiner).LocalStateRecord(repSite, k)
		if !ok || deleted || val != v {
			t.Fatalf("joiner did not receive owned key %s through stabilization handoff", k)
		}
	}
}

// TestRestartedReplicaRefilledWithinSixRounds: a node that crashes and
// restarts empty between two rounds leaves no churn flag, since no
// neighbour saw it gone, and its own catch-up pulls only the range it owns.
// The keys it replicates for its predecessors come back through the full
// repair each node runs once in six rounds.
func TestRestartedReplicaRefilledWithinSixRounds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := explore.Seed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			c := bootReplicated(t, 5, seed, 3)
			entry := c.NodeByName("node-0")
			for i := 0; i < 60; i++ {
				if err := entry.StatePut(repSite, burstKey(i), burstVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			c.Crash("node-3")
			c.Restart("node-3")
			restarted := c.NodeByName("node-3")
			expositionHas(t, restarted, "nakika_replication_catchup_pending 1")
			c.StabilizeAll(6)
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			short := 0
			for i := 0; i < 60; i++ {
				if holders := c.StateHolders(repSite, burstKey(i)); len(holders) < 3 {
					short++
				}
			}
			if short > 0 {
				t.Fatalf("%d of 60 keys have fewer than 3 holders after six rounds", short)
			}
			// Six rounds since the restart, whose new process counts from
			// zero: its catch-up, followed by a full repair, and the
			// periodic repair of its round six.
			expositionHas(t, restarted, "nakika_replication_catchup_pending 0")
			expositionHas(t, restarted, "nakika_maintenance_rounds_total 6")
			expositionHas(t, restarted, `nakika_replication_repairs_total{trigger="catchup"} 1`)
			expositionHas(t, restarted, `nakika_replication_repairs_total{trigger="periodic"} 1`)
		})
	}
}

// TestReplicationDegradesWhenKExceedsLiveNodes: a replication factor
// larger than the ring keeps as many copies as there are live nodes, and
// keeps accepting writes all the way down to a ring of one.
func TestReplicationDegradesWhenKExceedsLiveNodes(t *testing.T) {
	seed := explore.Seed(35)
	c := bootReplicated(t, 3, seed, 5)
	entry := c.NodeByName("node-0")

	if err := entry.StatePut(repSite, "deg-a", "v1"); err != nil {
		t.Fatalf("write with K=5 on 3 nodes: %v", err)
	}
	if holders := c.StateHolders(repSite, "deg-a"); len(holders) != 3 {
		t.Fatalf("holders = %v, want all 3 live nodes", holders)
	}

	// Two nodes left: writes still acknowledged with one replica.
	c.Crash("node-1")
	c.StabilizeAll(4)
	if err := entry.StatePut(repSite, "deg-b", "v2"); err != nil {
		t.Fatalf("write with 2 live nodes: %v", err)
	}
	if holders := c.StateHolders(repSite, "deg-b"); len(holders) != 2 {
		t.Fatalf("holders = %v, want both live nodes", holders)
	}

	// A ring of one: the survivor suspects both peers, its successor list
	// empties, and writes
	// degrade to local-only durability instead of erroring forever.
	c.Crash("node-2")
	c.StabilizeAll(4)
	if err := entry.StatePut(repSite, "deg-c", "v3"); err != nil {
		t.Fatalf("write on a ring of one: %v", err)
	}
	if got, ok := entry.StateGet(repSite, "deg-c"); !ok || got != "v3" {
		t.Fatalf("lone node cannot read its own write (ok=%v)", ok)
	}
	if got, ok := entry.StateGet(repSite, "deg-a"); !ok || got != "v1" {
		t.Fatalf("lone node lost the fully replicated key (ok=%v, got %q)", ok, got)
	}
}

// TestRecoveredOwnerRebasesAboveReplicas pins the version-tie rebase: an
// owner that lost its version history (crash without persistence)
// re-issues a write at a version its replicas already hold — with its own
// origin name, an exact tie. The replicas reject it as stale and the
// owner must rebase above the reported version and retry, so the client's
// write still wins last-writer-wins everywhere.
func TestRecoveredOwnerRebasesAboveReplicas(t *testing.T) {
	seed := explore.Seed(37)
	c := bootReplicated(t, 5, seed, 3)

	// A key written at its own owner, so the first write is (ver 1, owner).
	key, owner := "", ""
	for i := 0; i < 64 && key == ""; i++ {
		k := fmt.Sprintf("rebase-%02d", i)
		key, owner = k, c.Ring.Successor(state.ReplicaKey(repSite, k)).Name
	}
	on := c.NodeByName(owner)
	if err := on.StatePut(repSite, key, "first"); err != nil {
		t.Fatal(err)
	}

	// Crash wipes the owner's store (no persistence); restart it and
	// write again immediately — before any catch-up — so the owner assigns
	// (ver 1, owner) again, exactly what the replicas already hold. The new
	// value sorts below the old one, so the payload tie-break cannot accept
	// it and the replicas must report it stale, forcing the rebase.
	c.Crash(owner)
	c.Restart(owner)
	on = c.NodeByName(owner)
	if err := on.StatePut(repSite, key, "again"); err != nil {
		t.Fatalf("write from history-less owner must rebase, not fail: %v", err)
	}
	for _, name := range c.Names() {
		if got, ok := c.NodeByName(name).StateGet(repSite, key); !ok || got != "again" {
			t.Fatalf("%s reads (%q, %v), want the rebased write", name, got, ok)
		}
	}
	if ver, _, _, ok := on.LocalStateRecord(repSite, key); !ok || ver < 2 {
		t.Fatalf("owner's record at ver %d (ok=%v), want rebased above 1", ver, ok)
	}
}

// TestAckedWriteSurvivesMixedStaleAcks pins the rebase-despite-ack rule:
// an amnesiac owner reissues a version one replica already holds with a
// payload-winning record while another replica (which missed the original
// write behind a partition) accepts the reissue. Acking on that single
// accept would hand the key back to the old value at the next repair; the
// owner must rebase above the stale report even though it got an ack, so
// the client's new write wins everywhere.
func TestAckedWriteSurvivesMixedStaleAcks(t *testing.T) {
	seed := explore.Seed(39)
	c := bootReplicated(t, 5, seed, 3)

	// A key written at its own owner, whose replica set we can split.
	key, owner := "", ""
	for i := 0; i < 64 && key == ""; i++ {
		k := fmt.Sprintf("mixed-%02d", i)
		key, owner = k, c.Ring.Successor(state.ReplicaKey(repSite, k)).Name
	}
	on := c.NodeByName(owner)
	reps := on.Overlay().Successors()
	if len(reps) < 2 {
		t.Fatalf("owner %s has %d successors, need 2 replicas", owner, len(reps))
	}
	// Partition the second replica away so the first write lands on the
	// owner and the first replica only ("zzz" sorts above the later write).
	c.Partition([]string{reps[1]})
	if err := on.StatePut(repSite, key, "zzz-original"); err != nil {
		t.Fatalf("first write with one replica reachable: %v", err)
	}
	c.Heal()

	// The owner loses its history (crash without persistence) and the
	// client writes a value that loses the payload tie at the reissued
	// version: replica one reports it stale while replica two accepts it.
	c.Crash(owner)
	c.Restart(owner)
	on = c.NodeByName(owner)
	if err := on.StatePut(repSite, key, "aaa-new"); err != nil {
		t.Fatalf("reissued write must rebase and succeed: %v", err)
	}

	// Repair must not resurrect the old value anywhere.
	c.StabilizeAll(6)
	for _, name := range c.Names() {
		if got, ok := c.NodeByName(name).StateGet(repSite, key); !ok || got != "aaa-new" {
			t.Fatalf("%s reads (%q, %v): acked write lost to the pre-crash value", name, got, ok)
		}
	}
}

// TestIsolatedDeleteFailsAndChangesNothing: a delete issued while no
// acting owner is reachable fails like a put does, and leaves no trace for
// repair to spread; retried after heal, it goes through the owner and wins.
func TestIsolatedDeleteFailsAndChangesNothing(t *testing.T) {
	seed := explore.Seed(38)
	c := bootReplicated(t, 5, seed, 3)
	entry := c.NodeByName("node-0")
	if err := entry.StatePut(repSite, "orphan-del", "v"); err != nil {
		t.Fatal(err)
	}
	c.Partition([]string{"node-0"})
	if err := entry.StateDelete(repSite, "orphan-del"); err == nil {
		t.Fatal("a delete with no reachable owner was acknowledged")
	}
	c.Heal()
	c.StabilizeAll(6)
	for _, name := range c.Names() {
		if got, ok := c.NodeByName(name).StateGet(repSite, "orphan-del"); !ok || got != "v" {
			t.Fatalf("%s reads (%q, %v) after a failed delete, want \"v\"", name, got, ok)
		}
	}
	if err := entry.StateDelete(repSite, "orphan-del"); err != nil {
		t.Fatalf("delete retried after heal: %v", err)
	}
	for _, name := range c.Names() {
		if _, ok := c.NodeByName(name).StateGet(repSite, "orphan-del"); ok {
			t.Fatalf("%s still reads the key after the retried delete", name)
		}
	}
}

// TestDeleteCannotEraseLaterPut: a delete that failed while its node was
// partitioned must not come back after heal and erase a put acknowledged
// after it.
func TestDeleteCannotEraseLaterPut(t *testing.T) {
	for seed := int64(38); seed <= 47; seed++ {
		seed := explore.Seed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			c := bootReplicated(t, 5, seed, 3)
			isolated := c.NodeByName("node-0")
			if err := isolated.StatePut(repSite, "k", "old"); err != nil {
				t.Fatal(err)
			}
			c.Partition([]string{"node-0"})
			_ = isolated.StateDelete(repSite, "k")
			c.Heal()
			if err := c.NodeByName("node-2").StatePut(repSite, "k", "new"); err != nil {
				t.Fatalf("put after heal: %v", err)
			}
			c.StabilizeAll(6)
			for _, name := range c.Names() {
				if got, ok := c.NodeByName(name).StateGet(repSite, "k"); !ok || got != "new" {
					t.Fatalf("%s reads (%q, %v), want the acknowledged \"new\"", name, got, ok)
				}
			}
		})
	}
}

// TestReplicatedDeleteWins: a delete routed through the owner leaves a
// versioned tombstone that beats the put on every replica, so the key
// reads as absent from every node.
func TestReplicatedDeleteWins(t *testing.T) {
	seed := explore.Seed(36)
	c := bootReplicated(t, 5, seed, 3)
	entry := c.NodeByName("node-0")
	if err := entry.StatePut(repSite, "del-k", "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := entry.StateDelete(repSite, "del-k"); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Names() {
		if _, ok := c.NodeByName(n).StateGet(repSite, "del-k"); ok {
			t.Fatalf("deleted key still readable from %s", n)
		}
	}
	if holders := c.StateHolders(repSite, "del-k"); len(holders) != 0 {
		t.Fatalf("tombstoned key still counted live on %v", holders)
	}
	for _, n := range c.Names() {
		for _, k := range c.NodeByName(n).StateKeys(repSite) {
			if k == "del-k" {
				t.Fatalf("tombstoned key listed by %s", n)
			}
		}
	}
}
