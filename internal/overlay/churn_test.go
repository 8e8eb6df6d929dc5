package overlay

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"nakika/internal/transport"
)

// groundTruth computes the converged routing tables for every member
// directly from the membership set, independently of the code under test.
type member struct {
	name string
	id   ID
}

// stabilizeAll runs rounds of maintenance across every local member in
// sorted-name order: successor repair first, then finger repair.
func stabilizeAll(r *Ring, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, name := range r.Nodes() {
			if n := byName(r, name); n != nil && !n.remote {
				n.Stabilize()
			}
		}
		for _, name := range r.Nodes() {
			if n := byName(r, name); n != nil && !n.remote {
				n.FixFingers()
			}
		}
	}
}

func groundTruth(r *Ring) []member {
	names := r.Nodes()
	ms := make([]member, len(names))
	for i, n := range names {
		ms[i] = member{name: n, id: HashID(n)}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	return ms
}

func ownerOf(ms []member, id ID) member {
	i := sort.Search(len(ms), func(i int) bool { return ms[i].id >= id })
	if i == len(ms) {
		i = 0
	}
	return ms[i]
}

// verifyConverged asserts that every node's successor list, predecessor,
// finger table, and routed lookups match the membership ground truth.
func verifyConverged(t *testing.T, r *Ring, label string) {
	t.Helper()
	ms := groundTruth(r)
	n := len(ms)
	if n < 2 {
		return
	}
	k := succListLen
	if k > n-1 {
		k = n - 1
	}
	for pos, m := range ms {
		node := byName(r, m.name)
		// Successor list: the next k members around the ring.
		want := make([]string, k)
		for j := 1; j <= k; j++ {
			want[j-1] = ms[(pos+j)%n].name
		}
		got := node.Successors()
		if len(got) < 1 || got[0] != want[0] {
			t.Fatalf("%s: node %s succs = %v, want prefix %v", label, m.name, got, want)
		}
		for j := 0; j < len(got) && j < len(want); j++ {
			if got[j] != want[j] {
				t.Fatalf("%s: node %s succs[%d] = %s, want %s (full %v vs %v)", label, m.name, j, got[j], want[j], got, want)
			}
		}
		node.mu.Lock()
		pred := node.pred.name
		node.mu.Unlock()
		if wantPred := ms[(pos-1+n)%n].name; pred != wantPred {
			t.Fatalf("%s: node %s pred = %s, want %s", label, m.name, pred, wantPred)
		}
		// Finger-table correctness: fingers[b] is the owner of id + 2^b.
		node.mu.Lock()
		fingers := append([]ref(nil), node.fingers...)
		node.mu.Unlock()
		for b, f := range fingers {
			target := m.id + ID(uint64(1)<<uint(b))
			if want := ownerOf(ms, target).name; f.name != want {
				t.Fatalf("%s: node %s finger[%d] = %q, want %q", label, m.name, b, f.name, want)
			}
		}
	}
	// Routed lookups agree with the ground truth from every starting node.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("churn-key-%d", i)
		want := ownerOf(ms, HashID(key)).name
		for _, m := range ms {
			got, _, err := byName(r, m.name).LookupName(key)
			if err != nil {
				t.Fatalf("%s: lookup %q from %s: %v", label, key, m.name, err)
			}
			if got != want {
				t.Fatalf("%s: lookup %q from %s = %s, want %s", label, key, m.name, got, want)
			}
		}
	}
}

// TestChurnRepair drives randomized join/leave sequences with a fixed seed
// in manual-maintenance mode and asserts that Stabilize/FixFingers rounds
// repair every node's successor list and finger table to the membership
// ground truth.
func TestChurnRepair(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		initial  int
		ops      int
		joinBias float64 // probability an op is a join
		rounds   int
	}{
		{name: "join-heavy", seed: 1, initial: 4, ops: 10, joinBias: 0.8, rounds: 6},
		{name: "leave-heavy", seed: 2, initial: 12, ops: 10, joinBias: 0.2, rounds: 6},
		{name: "balanced", seed: 3, initial: 8, ops: 16, joinBias: 0.5, rounds: 6},
		{name: "mass-join", seed: 4, initial: 2, ops: 14, joinBias: 1.0, rounds: 6},
		{name: "deep-churn", seed: 5, initial: 10, ops: 30, joinBias: 0.5, rounds: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			r := NewRing()
			for i := 0; i < tc.initial; i++ {
				r.Join(fmt.Sprintf("seed-%02d", i), "r")
			}
			r.ManualMaintenance = true
			next := 0
			for op := 0; op < tc.ops; op++ {
				if rng.Float64() < tc.joinBias || r.Size() <= 3 {
					r.Join(fmt.Sprintf("late-%02d", next), "r")
					next++
				} else {
					names := r.Nodes()
					r.Leave(names[rng.Intn(len(names))])
				}
			}
			stabilizeAll(r, tc.rounds)
			verifyConverged(t, r, tc.name)
		})
	}
}

// TestChurnRepairDeterministic re-runs one churn case and checks the
// surviving membership and every routing decision are identical run to run.
func TestChurnRepairDeterministic(t *testing.T) {
	run := func() string {
		rng := rand.New(rand.NewSource(9))
		r := NewRing()
		for i := 0; i < 8; i++ {
			r.Join(fmt.Sprintf("seed-%02d", i), "r")
		}
		r.ManualMaintenance = true
		for op := 0; op < 20; op++ {
			if rng.Float64() < 0.5 || r.Size() <= 3 {
				r.Join(fmt.Sprintf("late-%02d", op), "r")
			} else {
				names := r.Nodes()
				r.Leave(names[rng.Intn(len(names))])
			}
		}
		stabilizeAll(r, 6)
		fp := fmt.Sprint(r.Nodes())
		for i := 0; i < 10; i++ {
			name, hops, err := byName(r, r.Nodes()[0]).LookupName(fmt.Sprintf("det-key-%d", i))
			fp += fmt.Sprintf("|%s/%d/%v", name, hops, err == nil)
		}
		return fp
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("churn repair not deterministic:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestAutoRebuildStaysConverged is the control: in the default maintenance
// mode every membership change leaves tables exactly converged.
func TestAutoRebuildStaysConverged(t *testing.T) {
	r := NewRing()
	for i := 0; i < 10; i++ {
		r.Join(fmt.Sprintf("auto-%02d", i), "r")
	}
	verifyConverged(t, r, "after joins")
	r.Leave("auto-03")
	r.Leave("auto-07")
	verifyConverged(t, r, "after leaves")
	r.Join("auto-late", "r")
	verifyConverged(t, r, "after rejoin")
}

// TestLookupRoutesAroundUnreachableNode checks the skip-set fallback: with
// a node's transport registration gone but membership intact (a crash, not
// a leave), lookups still converge by routing around it.
func TestLookupRoutesAroundUnreachableNode(t *testing.T) {
	r := NewRing()
	var nodes []*Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, r.Join(fmt.Sprintf("ra-%d", i), "r"))
	}
	// Simulate a crash: the node vanishes from the transport but not from
	// membership (nobody has detected the failure yet).
	crashed := nodes[3]
	r.Transport.Unregister(crashed.Name)
	defer r.Transport.Register(crashed.Name, crashed.ServeRPC)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("crash-key-%d", i)
		owner := r.Successor(key)
		if owner == crashed {
			continue // keys owned by the crashed node are legitimately lost
		}
		for _, n := range nodes {
			if n == crashed {
				continue
			}
			got, _, err := n.LookupName(key)
			if err != nil {
				t.Fatalf("lookup %q from %s with ra-3 down: %v", key, n.Name, err)
			}
			if got != owner.Name {
				t.Fatalf("lookup %q from %s = %s, want %s", key, n.Name, got, owner.Name)
			}
		}
	}
}

// TestOverlayAcrossTCP runs the same overlay protocol between two rings in
// separate "processes" connected by the TCP transport: each process serves
// its own member and sees the other only as a remote stub.
func TestOverlayAcrossTCP(t *testing.T) {
	t1, t2 := transport.NewTCP(), transport.NewTCP()
	defer t1.Close()
	defer t2.Close()

	r1 := NewRing()
	r1.Transport = t1
	r2 := NewRing()
	r2.Transport = t2

	n1 := r1.Join("proc-1", "us-east")
	n2 := r2.Join("proc-2", "eu-west")
	r1.AddRemote("proc-2", "eu-west")
	r2.AddRemote("proc-1", "us-east")

	addr1, err := t1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := t2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t1.AddPeer("proc-2", addr2.String())
	t2.AddPeer("proc-1", addr1.String())

	// Find keys owned by each side (per the shared ground truth).
	var keyAt2 string
	for i := 0; ; i++ {
		k := fmt.Sprintf("tcp-key-%d", i)
		if r1.Successor(k).Name == "proc-2" {
			keyAt2 = k
			break
		}
	}
	// Publishing from process 1 stores the entry at process 2 over TCP.
	holding(time.Now().Add(time.Hour), n1)
	if _, err := n1.Publish(keyAt2); err != nil {
		t.Fatal(err)
	}
	if holders := n2.applyLocate(keyAt2); len(holders) != 1 || holders[0] != "proc-1" {
		t.Fatalf("index at proc-2 = %v", holders)
	}
	// And process 1 can locate it back across the wire.
	holders, _, err := n1.LocateErr(keyAt2)
	if err != nil {
		t.Fatal(err)
	}
	if len(holders) != 1 || holders[0] != "proc-1" {
		t.Fatalf("locate across TCP = %v", holders)
	}
	// Lookups agree on ownership from both processes.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("agree-%d", i)
		o1, _, err1 := n1.LookupName(k)
		o2, _, err2 := n2.LookupName(k)
		if err1 != nil || err2 != nil || o1 != o2 {
			t.Fatalf("cross-process ownership of %q: %q/%v vs %q/%v", k, o1, err1, o2, err2)
		}
	}
}
