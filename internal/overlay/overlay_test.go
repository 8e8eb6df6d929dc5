package overlay

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// lookup routes from n to the member responsible for key, returning it (nil
// when routing fails) and the routing hop count.
func lookup(n *Node, key string) (*Node, int) {
	name, hops, err := n.LookupName(key)
	if err != nil {
		return nil, hops
	}
	return n.ring.NodeByName(name), hops
}

func TestJoinLeaveSize(t *testing.T) {
	r := NewRing()
	if r.Size() != 0 {
		t.Fatal("new ring should be empty")
	}
	a := r.Join("node-a", "us-east")
	r.Join("node-b", "us-west")
	r.Join("node-c", "asia")
	if r.Size() != 3 {
		t.Errorf("size = %d", r.Size())
	}
	// Idempotent join.
	a2 := r.Join("node-a", "us-east")
	if a2 != a || r.Size() != 3 {
		t.Error("re-join should be idempotent")
	}
	r.Leave("node-b")
	if r.Size() != 2 {
		t.Errorf("size after leave = %d", r.Size())
	}
	r.Leave("node-b") // double leave is a no-op
	if r.Size() != 2 {
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
			got, _ := lookup(n, key)
			if got != want {
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

	key := "GET http://med.nyu.edu/simm/module1.html"
	if _, err := a.Publish(key); err != nil {
		t.Fatal(err)
	}
	// Any node can locate the cached copy.
	found, _ := b.Locate(key)
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
	found, _ = a.Locate(key)
	if len(found) != 2 {
		t.Errorf("Locate after second publish = %v", found)
	}
	// Unpublish removes only the named node's entry.
	a.Unpublish(key)
	found, _ = b.Locate(key)
	if len(found) != 1 || found[0] != "node-b" {
		t.Errorf("Locate after unpublish = %v", found)
	}
}

func TestLocateMissingKey(t *testing.T) {
	r := NewRing()
	a := r.Join("node-a", "us-east")
	if found, _ := a.Locate("GET http://never-published.example.org/"); len(found) != 0 {
		t.Errorf("Locate of unpublished key = %v", found)
	}
}

func TestIndexEntriesExpire(t *testing.T) {
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	r := NewRing()
	r.DefaultTTL = 30 * time.Second
	r.Clock = func() time.Time { return now }
	a := r.Join("node-a", "us-east")
	b := r.Join("node-b", "us-west")
	key := "GET http://example.org/x"
	if _, err := a.Publish(key); err != nil {
		t.Fatal(err)
	}
	if found, _ := b.Locate(key); len(found) != 1 {
		t.Fatal("entry should be fresh")
	}
	now = now.Add(31 * time.Second)
	if found, _ := b.Locate(key); len(found) != 0 {
		t.Errorf("entry should have expired, got %v", found)
	}
}

func TestLookupHopsScaleLogarithmically(t *testing.T) {
	// With n nodes, lookups should take O(log n) hops, never more than
	// log2(n)+1.
	for _, n := range []int{2, 8, 32, 128} {
		r := NewRing()
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, r.Join(fmt.Sprintf("node-%d", i), "r"))
		}
		maxHops := 0
		for i := 0; i < 200; i++ {
			_, hops := lookup(nodes[i%n], fmt.Sprintf("key-%d", i))
			if hops > maxHops {
				maxHops = hops
			}
		}
		bound := 1
		for s := n; s > 1; s >>= 1 {
			bound++
		}
		if maxHops > bound {
			t.Errorf("n=%d: max hops %d exceeds log bound %d", n, maxHops, bound)
		}
	}
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
	owner, hops := lookup(a, "anything")
	if owner != a || hops != 0 {
		t.Errorf("single node ring: owner=%v hops=%d", owner.Name, hops)
	}
	if _, err := a.Publish("k"); err != nil {
		t.Fatal(err)
	}
	if found, _ := a.Locate("k"); len(found) != 1 {
		t.Error("single node should locate its own entry")
	}
}

func TestEmptyRingLookup(t *testing.T) {
	r := NewRing()
	n := r.Join("temp", "r")
	r.Leave("temp")
	owner, _ := lookup(n, "k")
	if owner != nil {
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
