package overlay

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"nakika/internal/transport"
)

// member is one position of the membership ground truth, computed directly
// from the member names, independently of the code under test.
type member struct {
	name string
	id   ID
}

// groundTruth returns the ring's members sorted by ID, without the names in
// down.
func groundTruth(r *Ring, down ...string) []member {
	var ms []member
	for _, n := range r.Nodes() {
		if !slices.Contains(down, n) {
			ms = append(ms, member{name: n, id: HashID(n)})
		}
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

// roundAll runs one Stabilize on every member outside down, in name order.
func roundAll(r *Ring, down ...string) {
	for _, name := range r.Nodes() {
		if !slices.Contains(down, name) {
			byName(r, name).Stabilize()
		}
	}
}

// windowOf returns the names a member at position pos of ms pings in a round
// when it suspects no one: its predecessor and its first succListLen
// successors.
func windowOf(ms []member, pos int) []string {
	n := len(ms)
	out := []string{ms[(pos-1+n)%n].name}
	for j := 1; j <= succListLen && j < n; j++ {
		out = append(out, ms[(pos+j)%n].name)
	}
	return out
}

// verifyViews asserts that every member of ms sees exactly ms: its successor
// list, its owned range, and its lookups (with the names in avoid passed
// over) match the ground truth.
func verifyViews(t *testing.T, r *Ring, ms []member, avoid map[string]bool, label string) {
	t.Helper()
	n := len(ms)
	for pos, m := range ms {
		node := byName(r, m.name)
		var want []string
		for j := 1; j <= succListLen && j < n; j++ {
			want = append(want, ms[(pos+j)%n].name)
		}
		if got := node.Successors(); !slices.Equal(got, want) {
			t.Fatalf("%s: %s successors = %v, want %v", label, m.name, got, want)
		}
		from, to, ok := node.OwnedRange()
		if wantFrom := ms[(pos-1+n)%n].id; n > 1 && (!ok || from != wantFrom || to != m.id) {
			t.Fatalf("%s: %s owns (%x, %x] ok=%v, want (%x, %x]", label, m.name, from, to, ok, wantFrom, m.id)
		}
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("churn-key-%d", i)
			got, err := node.LookupNameAvoid(key, avoid)
			if want := ownerOf(ms, HashID(key)).name; err != nil || got != want {
				t.Fatalf("%s: lookup %q from %s = %q, %v; want %s", label, key, m.name, got, err, want)
			}
		}
	}
}

// churnRing builds a ring from a seeded sequence of joins and leaves.
func churnRing(seed int64, initial, ops int, joinBias float64) *Ring {
	rng := rand.New(rand.NewSource(seed))
	r := NewRing()
	for i := 0; i < initial; i++ {
		r.Join(fmt.Sprintf("seed-%02d", i), "r")
	}
	for op := 0; op < ops; op++ {
		if rng.Float64() < joinBias || len(r.Nodes()) <= 3 {
			r.Join(fmt.Sprintf("late-%02d", op), "r")
		} else {
			names := r.Nodes()
			r.Leave(names[rng.Intn(len(names))])
		}
	}
	return r
}

// TestChurnRepair drives seeded join/leave sequences, then crashes one member
// by taking it off the transport (membership unchanged) and checks what one
// ping round does: every live member whose window holds the crashed one
// suspects it and no other member does; every live member's successors,
// owned range and lookups then match the ground truth without it; and once
// the member answers again, one round clears the suspicion.
func TestChurnRepair(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		initial  int
		ops      int
		joinBias float64 // probability an op is a join
	}{
		{name: "join-heavy", seed: 1, initial: 4, ops: 10, joinBias: 0.8},
		{name: "leave-heavy", seed: 2, initial: 12, ops: 10, joinBias: 0.2},
		{name: "balanced", seed: 3, initial: 8, ops: 16, joinBias: 0.5},
		{name: "mass-join", seed: 4, initial: 2, ops: 14, joinBias: 1.0},
		{name: "deep-churn", seed: 5, initial: 10, ops: 30, joinBias: 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := churnRing(tc.seed, tc.initial, tc.ops, tc.joinBias)
			all := groundTruth(r)
			verifyViews(t, r, all, nil, "after churn")

			pos := rand.New(rand.NewSource(tc.seed)).Intn(len(all))
			crashed := byName(r, all[pos].name)
			r.Transport.Unregister(crashed.Name)
			roundAll(r, crashed.Name)
			for i, m := range all {
				if m.name == crashed.Name {
					continue
				}
				want := slices.Contains(windowOf(all, i), crashed.Name)
				if got := byName(r, m.name).suspects[crashed.Name]; got != want {
					t.Fatalf("%s suspects %s = %v after one round, want %v", m.name, crashed.Name, got, want)
				}
				if len(byName(r, m.name).suspects) > 1 {
					t.Fatalf("%s suspects %v, more than the crashed member", m.name, byName(r, m.name).suspects)
				}
			}
			verifyViews(t, r, groundTruth(r, crashed.Name), map[string]bool{crashed.Name: true}, "after crash")

			r.Transport.Register(crashed.Name, crashed.ServeRPC)
			roundAll(r, crashed.Name)
			for _, m := range all {
				if s := byName(r, m.name).suspects; len(s) != 0 {
					t.Fatalf("%s still suspects %v one round after the restart", m.name, s)
				}
			}
			verifyViews(t, r, all, nil, "after restart")
		})
	}
}

// TestChurnRepairDeterministic re-runs one churn-and-crash case and checks the
// surviving membership, every suspicion and every lookup are identical run
// to run.
func TestChurnRepairDeterministic(t *testing.T) {
	run := func() string {
		r := churnRing(9, 8, 20, 0.5)
		crashed := r.Nodes()[2]
		r.Transport.Unregister(crashed)
		roundAll(r, crashed)
		fp := fmt.Sprint(r.Nodes())
		for _, name := range r.Nodes() {
			fp += fmt.Sprintf("|%s:%v", name, byName(r, name).suspects)
		}
		for i := 0; i < 10; i++ {
			name, err := byName(r, r.Nodes()[0]).LookupName(fmt.Sprintf("det-key-%d", i))
			fp += fmt.Sprintf("|%s/%v", name, err == nil)
		}
		return fp
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("view churn not deterministic:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestChurnHookFollowsNeighbours: a round fires the churn hook exactly when
// it leaves the node's predecessor or successor list different from the
// last round's: once at the first round, then at no quiet round, at the
// round that suspects a crashed neighbour, and at the round that clears it.
func TestChurnHookFollowsNeighbours(t *testing.T) {
	r := NewRing()
	fired := make(map[string]int)
	for i := 0; i < 8; i++ {
		n := r.Join(fmt.Sprintf("hook-%d", i), "r")
		n.SetChurnHook(func() { fired[n.Name]++ })
	}
	all := groundTruth(r)
	round := func(want func(i int) bool, label string, down ...string) {
		t.Helper()
		clear(fired)
		roundAll(r, down...)
		for i, m := range all {
			if slices.Contains(down, m.name) {
				continue
			}
			if got := fired[m.name] == 1; got != want(i) {
				t.Fatalf("%s: %s fired %d times", label, m.name, fired[m.name])
			}
		}
	}
	round(func(int) bool { return true }, "first round")
	round(func(int) bool { return false }, "quiet round")
	crashed := all[3].name
	inWindow := func(i int) bool { return slices.Contains(windowOf(all, i), crashed) }
	r.Transport.Unregister(crashed)
	round(inWindow, "crash round", crashed)
	round(func(int) bool { return false }, "quiet round after the crash", crashed)
	r.Transport.Register(crashed, byName(r, crashed).ServeRPC)
	round(inWindow, "restart round", crashed)
}

// TestViewDigest: the digest is FNV-1a over the sorted members, a NUL, and
// the sorted suspects, so nodes agree on it exactly while they agree on the
// view, a suspicion sets the suspecting node apart, and the round that
// clears it brings the digests back together.
func TestViewDigest(t *testing.T) {
	r := NewRing()
	for _, name := range []string{"d-2", "d-0", "d-1"} {
		r.Join(name, "r")
	}
	h := fnv.New32a()
	h.Write([]byte("d-0\nd-1\nd-2\x00"))
	for _, name := range r.Nodes() {
		if got := byName(r, name).ViewDigest(); got != h.Sum32() {
			t.Fatalf("%s digest = %#x, want %#x", name, got, h.Sum32())
		}
	}
	r.Transport.Unregister("d-1")
	roundAll(r, "d-1")
	h.Reset()
	h.Write([]byte("d-0\nd-1\nd-2\x00d-1"))
	for _, name := range []string{"d-0", "d-2"} {
		if got := byName(r, name).ViewDigest(); got != h.Sum32() {
			t.Fatalf("%s digest with d-1 suspected = %#x, want %#x", name, got, h.Sum32())
		}
	}
	r.Transport.Register("d-1", byName(r, "d-1").ServeRPC)
	roundAll(r, "d-1")
	if a, b := byName(r, "d-0").ViewDigest(), byName(r, "d-1").ViewDigest(); a != b {
		t.Fatalf("digests after the restart round differ: %#x vs %#x", a, b)
	}
}

// TestViewsFollowMembership: every view sees a join or a leave at once, with
// no maintenance round.
func TestViewsFollowMembership(t *testing.T) {
	r := NewRing()
	for i := 0; i < 10; i++ {
		r.Join(fmt.Sprintf("auto-%02d", i), "r")
	}
	verifyViews(t, r, groundTruth(r), nil, "after joins")
	r.Leave("auto-03")
	r.Leave("auto-07")
	verifyViews(t, r, groundTruth(r), nil, "after leaves")
	r.Join("auto-late", "r")
	verifyViews(t, r, groundTruth(r), nil, "after rejoin")
}

// TestLookupSendsNoMessages: at every ring size a lookup is answered from
// the node's own view, with no message on the transport.
func TestLookupSendsNoMessages(t *testing.T) {
	for _, n := range []int{2, 8, 32, 128} {
		rec := &recorder{Transport: transport.NewLocal()}
		r := NewRing()
		r.Transport = rec
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, r.Join(fmt.Sprintf("node-%d", i), "r"))
		}
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("key-%d", i)
			if got := lookup(nodes[i%n], key); got != r.Successor(key) {
				t.Fatalf("n=%d: lookup %q = %v, want %s", n, key, got, r.Successor(key).Name)
			}
		}
		if rec.calls != 0 {
			t.Errorf("n=%d: 200 lookups sent %d messages", n, rec.calls)
		}
	}
}

// TestLookupRoutesAroundUnreachableNode: with a node's transport
// registration gone but membership intact (a crash, not a leave), every
// other node still resolves each key it does not own to its owner.
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
			got, err := n.LookupName(key)
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
		o1, err1 := n1.LookupName(k)
		o2, err2 := n2.LookupName(k)
		if err1 != nil || err2 != nil || o1 != o2 {
			t.Fatalf("cross-process ownership of %q: %q/%v vs %q/%v", k, o1, err1, o2, err2)
		}
	}
}
