package overlay

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nakika/internal/transport"
)

// lookup returns the member responsible for key in n's view (nil when the
// lookup fails).
func lookup(n *Node, key string) *Node {
	name, err := n.LookupName(key)
	if err != nil {
		return nil
	}
	return byName(n.ring, name)
}

// byName returns the ring's member (or remote stub) with the given name, or
// nil.
func byName(r *Ring, name string) *Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[name]
}

// holding makes each node report a copy of every key, fresh until until, so
// its Publish announces the key.
func holding(until time.Time, nodes ...*Node) { holdingOn(nil, until, nodes...) }

// holdingOn is holding with the nodes judging index entries by clock.
func holdingOn(clock func() time.Time, until time.Time, nodes ...*Node) {
	for _, n := range nodes {
		n.SetCopies(func(string) (time.Time, bool) { return until, true }, clock)
	}
}

func TestJoinLeaveSize(t *testing.T) {
	r := NewRing()
	if len(r.Nodes()) != 0 {
		t.Fatal("new ring should be empty")
	}
	a := r.Join("node-a", "us-east")
	r.Join("node-b", "us-west")
	r.Join("node-c", "asia")
	if len(r.Nodes()) != 3 {
		t.Errorf("size = %d", len(r.Nodes()))
	}
	// Idempotent join.
	a2 := r.Join("node-a", "us-east")
	if a2 != a || len(r.Nodes()) != 3 {
		t.Error("re-join should be idempotent")
	}
	r.Leave("node-b")
	if len(r.Nodes()) != 2 {
		t.Errorf("size after leave = %d", len(r.Nodes()))
	}
	r.Leave("node-b") // double leave is a no-op
	if len(r.Nodes()) != 2 {
		t.Error("double leave changed size")
	}
	nodes := r.Nodes()
	if len(nodes) != 2 || nodes[0] != "node-a" || nodes[1] != "node-c" {
		t.Errorf("nodes = %v", nodes)
	}
}

func TestHashIDDeterministic(t *testing.T) {
	if HashID("x") != HashID("x") {
		t.Error("HashID must be deterministic")
	}
	if HashID("x") == HashID("y") {
		t.Error("different keys should (overwhelmingly) hash differently")
	}
}

func TestSuccessorConsistency(t *testing.T) {
	r := NewRing()
	for i := 0; i < 10; i++ {
		r.Join(fmt.Sprintf("node-%d", i), "region")
	}
	// Every key has exactly one responsible node, agreed on by all nodes.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("GET http://example.org/resource-%d", i)
		want := r.Successor(key)
		for _, name := range r.Nodes() {
			n := r.nodes[name]
			if got := lookup(n, key); got != want {
				t.Fatalf("node %s resolves %q to %s, ring says %s", name, key, got.Name, want.Name)
			}
		}
	}
}

func TestPublishAndLocate(t *testing.T) {
	r := NewRing()
	a := r.Join("node-a", "us-east")
	b := r.Join("node-b", "us-west")
	r.Join("node-c", "asia")
	holding(time.Now().Add(time.Hour), a, b)

	key := "GET http://med.nyu.edu/simm/module1.html"
	if _, err := a.Publish(key); err != nil {
		t.Fatal(err)
	}
	// Any node can locate the cached copy.
	found := b.Locate(key)
	if len(found) != 1 || found[0] != "node-a" {
		t.Errorf("Locate = %v", found)
	}
	// A second holder is added, not duplicated.
	if _, err := b.Publish(key); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(key); err != nil {
		t.Fatal(err)
	}
	found = a.Locate(key)
	if len(found) != 2 {
		t.Errorf("Locate after second publish = %v", found)
	}
	// Unpublish removes only the named node's entry.
	a.Unpublish(key)
	found = b.Locate(key)
	if len(found) != 1 || found[0] != "node-b" {
		t.Errorf("Locate after unpublish = %v", found)
	}
}

func TestLocateMissingKey(t *testing.T) {
	r := NewRing()
	a := r.Join("node-a", "us-east")
	if found := a.Locate("GET http://never-published.example.org/"); len(found) != 0 {
		t.Errorf("Locate of unpublished key = %v", found)
	}
}

// TestIndexEntriesExpire: an entry lives exactly as long as the copy it
// announces — past 60 s for a copy fresh for an hour, and not past the
// copy's expiry.
func TestIndexEntriesExpire(t *testing.T) {
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	r := NewRing()
	a := r.Join("node-a", "us-east")
	b := r.Join("node-b", "us-west")
	holdingOn(func() time.Time { return now }, now.Add(time.Hour), a, b)
	key := "GET http://example.org/x"
	if _, err := a.Publish(key); err != nil {
		t.Fatal(err)
	}
	now = now.Add(61 * time.Second)
	if found := b.Locate(key); len(found) != 1 {
		t.Fatalf("a copy fresh for an hour is not located after 61 s: %v", found)
	}
	now = now.Add(time.Hour)
	if found := b.Locate(key); len(found) != 0 {
		t.Errorf("entry should have expired with its copy, got %v", found)
	}
}

// TestStabilizeDropsExpiredKeys: a key whose entries have all expired
// leaves the index by the next Stabilize, without a Locate to find it.
func TestStabilizeDropsExpiredKeys(t *testing.T) {
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	r := NewRing()
	a := r.Join("node-a", "us-east")
	b := r.Join("node-b", "us-west")
	holdingOn(func() time.Time { return now }, now.Add(time.Minute), a, b)
	for i := 0; i < 1000; i++ {
		if _, err := a.Publish(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Minute)
	a.Stabilize()
	b.Stabilize()
	for _, n := range []*Node{a, b} {
		n.mu.Lock()
		if left := len(n.index); left != 0 {
			t.Errorf("%s keeps %d keys after every entry expired and a Stabilize", n.Name, left)
		}
		n.mu.Unlock()
	}
}

// TestEntryOutlivesItsOwner: the owner keeps a copy of each entry at its
// first successor, and Locate asks that successor when the owner does not
// answer.
func TestEntryOutlivesItsOwner(t *testing.T) {
	sim := transport.NewSim(transport.SimConfig{Seed: 1})
	r := NewRing()
	r.Transport = sim
	var nodes []*Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, r.Join(fmt.Sprintf("node-%d", i), "r"))
	}
	holding(time.Now().Add(time.Hour), nodes...)
	key := "GET http://example.org/kept"
	owner := r.Successor(key)
	var holder, reader *Node
	for _, n := range nodes {
		switch {
		case n == owner:
		case holder == nil:
			holder = n
		case reader == nil:
			reader = n
		}
	}
	if _, err := holder.Publish(key); err != nil {
		t.Fatal(err)
	}
	sim.Crash(owner.Name)
	found, _, err := reader.LocateErr(key)
	if err != nil || len(found) != 1 || found[0] != holder.Name {
		t.Fatalf("Locate with the owner down = %v, %v; want [%s]", found, err, holder.Name)
	}
	// Unpublish reaches the copy too: with the owner back, its successor has
	// nothing left to answer for the holder either.
	sim.Restart(owner.Name)
	holder.Unpublish(key)
	sim.Crash(owner.Name)
	if found, _, err := reader.LocateErr(key); err != nil || len(found) != 0 {
		t.Errorf("Locate after Unpublish with the owner down = %v, %v", found, err)
	}
}

// TestPublishCarriesTheExpiry pins the announcement on the wire: ov.publish
// with the copy's expiry in Unix nanoseconds, relayed by the owner to its
// successor with the holder's name after it.
func TestPublishCarriesTheExpiry(t *testing.T) {
	rec := &recorder{Transport: transport.NewLocal()}
	r := NewRing()
	r.Transport = rec
	a := r.Join("node-a", "r")
	b := r.Join("node-b", "r")
	holding(time.Unix(1780272060, 0), a)
	key := "GET http://example.org/wire"
	for i := 0; r.Successor(key) != b; i++ {
		key = fmt.Sprintf("GET http://example.org/wire-%d", i)
	}
	if _, err := a.Publish(key); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"node-a>node-b ov.publish " + key + " [1780272060000000000]",
		"node-b>node-a ov.publish " + key + " [1780272060000000000 node-a]",
	}
	if !reflect.DeepEqual(rec.sent, want) {
		t.Errorf("sent %q, want %q", rec.sent, want)
	}
}

// recorder counts the messages sent through a transport and logs the
// publishes.
type recorder struct {
	transport.Transport
	calls int
	sent  []string
}

func (r *recorder) Call(from, to string, msg transport.Message) (transport.Message, error) {
	r.calls++
	if msg.Type == msgPublish {
		r.sent = append(r.sent, fmt.Sprintf("%s>%s %s %s %v", from, to, msg.Type, msg.Key, msg.Args))
	}
	return r.Transport.Call(from, to, msg)
}

func TestNodeStats(t *testing.T) {
	r := NewRing()
	a := r.Join("node-a", "us-east")
	r.Join("node-b", "us-west")
	for i := 0; i < 5; i++ {
		lookup(a, fmt.Sprintf("k%d", i))
	}
	st := a.Stats()
	if st.Lookups != 5 {
		t.Errorf("lookups = %d", st.Lookups)
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := NewRing()
	a := r.Join("only", "r")
	holding(time.Now().Add(time.Hour), a)
	if owner := lookup(a, "anything"); owner != a {
		t.Errorf("single node ring: owner=%v", owner)
	}
	if _, err := a.Publish("k"); err != nil {
		t.Fatal(err)
	}
	if found := a.Locate("k"); len(found) != 1 {
		t.Error("single node should locate its own entry")
	}
}

func TestEmptyRingLookup(t *testing.T) {
	r := NewRing()
	n := r.Join("temp", "r")
	holding(time.Now().Add(time.Hour), n)
	r.Leave("temp")
	if owner := lookup(n, "k"); owner != nil {
		t.Error("lookup on empty ring should return nil")
	}
	if _, err := n.Publish("k"); err == nil {
		t.Error("publish on empty ring should error")
	}
}

func TestRedirectorPrefersRegion(t *testing.T) {
	r := NewRing()
	r.Join("east-1", "us-east")
	r.Join("east-2", "us-east")
	r.Join("west-1", "us-west")
	r.Join("asia-1", "asia")
	rd := NewRedirector(r)
	for i := 0; i < 10; i++ {
		pick := rd.Pick("asia")
		if pick != "asia-1" {
			t.Fatalf("asia client redirected to %s", pick)
		}
	}
	// Round-robin across nodes in the same region.
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		seen[rd.Pick("us-east")]++
	}
	if seen["east-1"] == 0 || seen["east-2"] == 0 {
		t.Errorf("expected round-robin across east nodes: %v", seen)
	}
	// Unknown region falls back to any node.
	if pick := rd.Pick("antarctica"); pick == "" {
		t.Error("unknown region should still get a node")
	}
	// Empty ring returns "".
	empty := NewRedirector(NewRing())
	if empty.Pick("us-east") != "" {
		t.Error("empty ring should return empty pick")
	}
}

func TestConcurrentPublishLocate(t *testing.T) {
	r := NewRing()
	var nodes []*Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, r.Join(fmt.Sprintf("n%d", i), "r"))
	}
	holding(time.Now().Add(time.Hour), nodes...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := nodes[g]
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("key-%d", i%20)
				if i%2 == 0 {
					if _, err := n.Publish(key); err != nil {
						t.Error(err)
						return
					}
				} else {
					n.Locate(key)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: keys are distributed over nodes reasonably evenly — with 8 nodes
// and many random keys, no node owns more than 60% of the keys.
func TestPropertyKeyDistribution(t *testing.T) {
	r := NewRing()
	for i := 0; i < 8; i++ {
		r.Join(fmt.Sprintf("node-%d", i), "r")
	}
	counts := map[string]int{}
	total := 2000
	for i := 0; i < total; i++ {
		owner := r.Successor(fmt.Sprintf("http://example.org/obj-%d", i))
		counts[owner.Name]++
	}
	for name, c := range counts {
		if float64(c) > 0.6*float64(total) {
			t.Errorf("node %s owns %d/%d keys — distribution too skewed", name, c, total)
		}
	}
}

// Property: the responsible node for a key is unchanged by adding nodes
// whose IDs do not fall between the key and its current owner (consistent
// hashing's minimal disruption property, checked indirectly: after removing
// the added node, ownership returns to the original).
func TestPropertyConsistentHashingStability(t *testing.T) {
	f := func(keySeed, nodeSeed uint32) bool {
		r := NewRing()
		for i := 0; i < 5; i++ {
			r.Join(fmt.Sprintf("stable-%d", i), "r")
		}
		key := fmt.Sprintf("key-%d", keySeed)
		before := r.Successor(key).Name
		extra := fmt.Sprintf("extra-%d", nodeSeed)
		r.Join(extra, "r")
		r.Leave(extra)
		after := r.Successor(key).Name
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBetween(t *testing.T) {
	if !between(5, 3, 7) {
		t.Error("5 in (3,7]")
	}
	if between(3, 3, 7) {
		t.Error("3 not in (3,7]")
	}
	if !between(7, 3, 7) {
		t.Error("7 in (3,7]")
	}
	// Wrap-around interval.
	if !between(1, 10, 3) {
		t.Error("1 in (10,3] (wrapped)")
	}
	if between(5, 10, 3) {
		t.Error("5 not in (10,3] (wrapped)")
	}
	if !between(42, 7, 7) {
		t.Error("full circle interval contains everything")
	}
}
