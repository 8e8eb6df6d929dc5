package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/transport"
)

const contested = "http://origin.example.org/contested.html"

// bootCluster builds an 8-node cluster over the simulated network.
func bootCluster(t *testing.T, seed int64, origin *CountingOrigin) *Cluster {
	t.Helper()
	c, err := New(Config{N: 8, Seed: seed, Latency: time.Millisecond}, origin)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterBootAndBasicTraffic(t *testing.T) {
	origin := NewCountingOrigin()
	origin.AddPage("http://site.example.org/a.html", "<html>a</html>", 600)
	c := bootCluster(t, 1, origin)
	if got := len(c.Names()); got != 8 {
		t.Fatalf("nodes = %d", got)
	}
	resp, err := c.Handle("node-0", "http://site.example.org/a.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	// Second fetch at a different node rides the cooperative cache.
	if _, err := c.Handle("node-5", "http://site.example.org/a.html"); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits("http://site.example.org/a.html"); hits != 1 {
		t.Errorf("origin hits = %d, want 1 (cooperative cache)", hits)
	}
	if c.NodeByName("node-5").Stats().PeerHits != 1 {
		t.Error("node-5 should have one peer hit")
	}
	if err := c.CheckLookupConvergence("http://site.example.org/a.html", contested); err != nil {
		t.Error(err)
	}
	if c.Sim.Now() == 0 {
		t.Error("virtual clock should have advanced with the traffic")
	}
}

// TestCacheAndIndexExpireInVirtualTime: every node's cache and its slice of
// the overlay index run on the cluster's virtual clock, so a max-age=60 page
// expires 61 s of virtual time after its fetch, with no sleeping: the index
// names no holder, and the next GET reaches the origin.
func TestCacheAndIndexExpireInVirtualTime(t *testing.T) {
	const url = "http://site.example.org/sixty.html"
	origin := NewCountingOrigin()
	origin.AddPage(url, "<html>sixty</html>", 60)
	c := bootCluster(t, 3, origin)
	if _, err := c.Handle("node-0", url); err != nil {
		t.Fatal(err)
	}
	if got := c.Holders("node-5", url); len(got) != 1 || got[0] != "node-0" {
		t.Fatalf("holders of a fresh copy = %v, want [node-0]", got)
	}
	if _, err := c.Handle("node-5", url); err != nil || c.NodeByName("node-5").Stats().PeerHits != 1 {
		t.Fatalf("node-5 was not served from node-0's copy (err %v)", err)
	}

	c.Sim.Loop().AdvanceTo(c.Sim.Now() + 61*time.Second)
	if got := c.Holders("node-5", url); len(got) != 0 {
		t.Errorf("holders 61 s of virtual time after the fetch = %v, want none", got)
	}
	if _, err := c.Handle("node-5", url); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits(url); hits != 2 {
		t.Errorf("origin hits = %d, want 2: the GET after expiry must reach the origin", hits)
	}
}

func TestScheduleParsing(t *testing.T) {
	events, err := ParseSchedule(`
		# comment
		at 50ms partition node-3
		at 60ms partition node-0,node-1 | node-2
		at 80ms heal
		at 100ms crash node-2
		at 150ms restart node-2
		at 200ms latency node-0 node-1 25ms
		at 250ms drop node-0 node-1 0.5
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 7 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Op != "partition" || events[0].At != 50*time.Millisecond {
		t.Errorf("first event = %+v", events[0])
	}
	for _, bad := range []string{
		"partition node-1",          // missing "at"
		"at 50ms",                   // missing op
		"at banana heal",            // bad time
		"at 50ms heal now",          // heal takes no args
		"at 50ms crash",             // crash needs a node
		"at 50ms explode node-1",    // unknown op
		"at 50ms drop a b fast",     // bad rate
		"at 50ms latency a b later", // bad duration
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
	if groups := splitGroups([]string{"a,b", "|", "c"}); len(groups) != 2 || len(groups[0]) != 2 || groups[1][0] != "c" {
		t.Errorf("splitGroups = %v", groups)
	}
}

func TestScheduledCrashAndRestart(t *testing.T) {
	origin := NewCountingOrigin()
	origin.AddPage("http://site.example.org/b.html", "<html>b</html>", 600)
	c := bootCluster(t, 2, origin)
	if err := c.Schedule(`
		at 5ms crash node-4
		at 40ms restart node-4
	`); err != nil {
		t.Fatal(err)
	}
	// Drive traffic to advance the virtual clock past 5ms.
	if _, err := c.Handle("node-0", "http://site.example.org/b.html"); err != nil {
		t.Fatal(err)
	}
	for c.Sim.Now() < 10*time.Millisecond {
		if _, err := c.Handle("node-1", "http://site.example.org/b.html"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Live("node-4") {
		t.Fatal("node-4 should be crashed by now")
	}
	// Lookups still converge for keys not owned by the crashed node, routed
	// around it.
	urls := []string{"http://site.example.org/b.html", "http://site.example.org/c.html"}
	for _, url := range urls {
		if c.Owner(url) == "node-4" {
			continue
		}
		if err := c.CheckLookupConvergence(url); err != nil {
			t.Error(err)
		}
	}
	c.Sim.Loop().AdvanceTo(50 * time.Millisecond)
	if !c.Live("node-4") {
		t.Fatal("node-4 should have restarted")
	}
	if err := c.CheckLookupConvergence(urls...); err != nil {
		t.Error(err)
	}
}

// TestNoLostPublishesAfterHeal: a publish that fails because the index
// owner is partitioned away is retried after heal, so the cooperative
// index converges to every holder. Meanwhile the owner's first successor,
// which keeps a copy of the owner's entries, answers the Locates the owner
// cannot.
func TestNoLostPublishesAfterHeal(t *testing.T) {
	origin := NewCountingOrigin()
	origin.AddPage(contested, strings.Repeat("x", 2000), 600)
	c := bootCluster(t, 3, origin)

	owner := c.Owner(contested)
	// Pick fetching nodes distinct from the index owner.
	var fetchers []string
	for _, n := range c.Names() {
		if n != owner {
			fetchers = append(fetchers, n)
		}
	}
	b, cNode := fetchers[0], fetchers[1]

	// B fetches and publishes normally.
	if _, err := c.Handle(b, contested); err != nil {
		t.Fatal(err)
	}
	if got := c.Holders(b, contested); len(got) != 1 || got[0] != b {
		t.Fatalf("holders after first fetch = %v", got)
	}

	// Partition the index owner: C's locate fails over to the owner's
	// successor, C copies from B instead of the origin, and C's publish
	// fails and goes pending.
	c.Partition([]string{owner})
	if _, err := c.Handle(cNode, contested); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits(contested); hits != 1 {
		t.Fatalf("origin hits with owner partitioned = %d, want 1", hits)
	}

	// Heal: one maintenance round retries the failed publish, so none is
	// lost.
	expositionHas(t, c.NodeByName(cNode), "nakika_overlay_publishes_pending 1")
	c.Heal()
	c.StabilizeAll(1)
	expositionHas(t, c.NodeByName(cNode), "nakika_overlay_publishes_pending 0")
	got := c.Holders(b, contested)
	want := []string{b, cNode}
	if len(got) != 2 || (got[0] != want[0] && got[0] != want[1]) || got[0] == got[1] {
		t.Fatalf("holders after heal+republish = %v, want %v", got, want)
	}
	// A third node now peer-fetches without touching the origin.
	if _, err := c.Handle(fetchers[2], contested); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits(contested); hits != 1 {
		t.Errorf("origin hits after heal = %d, want 1", hits)
	}
}

// runPartitionStampedeScenario is the acceptance scenario: an 8-node ring,
// a 16-client stampede on one contested key at one node, a partition
// scripted to land while the leader's origin fetch is in flight, a heal,
// and then cluster-wide assertions. It returns a fingerprint of every
// deterministic observable.
func runPartitionStampedeScenario(t *testing.T, seed int64) string {
	t.Helper()
	origin := NewCountingOrigin()
	origin.AddPage(contested, strings.Repeat("v", 4096), 600)
	c := bootCluster(t, seed, origin)

	entry := "node-0"
	owner := c.Owner(contested)
	victim := ""
	for _, n := range c.Names() {
		if n != entry && n != owner {
			victim = n
			break
		}
	}
	// The partition is scripted at a virtual time the stampede is guaranteed
	// to span: the leader's origin fetch is gated, so the fault lands while
	// the fetch is in flight.
	if err := c.Schedule(fmt.Sprintf("at 3ms partition %s", victim)); err != nil {
		t.Fatal(err)
	}

	origin.Gate(contested)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Handle(entry, contested)
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != 200 || len(resp.Body) != 4096 {
				errs <- fmt.Errorf("stampede response %d/%d bytes", resp.Status, len(resp.Body))
			}
		}()
	}
	// Wait for the single-flight leader to reach the origin, then advance
	// the virtual clock over the scripted partition time: the partition
	// lands mid-stampede, with the origin fetch still in flight.
	for origin.Waiting(contested) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	c.Sim.Loop().AdvanceTo(4 * time.Millisecond)
	if _, err := c.Sim.Call(entry, victim, transport.Message{Type: "ov.ping"}); err == nil {
		t.Fatal("victim should be partitioned mid-stampede")
	}
	origin.Release(contested)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The stampede cost exactly one origin fetch.
	if hits := origin.Hits(contested); hits != 1 {
		t.Fatalf("origin hits after stampede = %d, want 1", hits)
	}

	// Every other connected node now serves the key from the cooperative
	// cache; the partitioned victim is left alone until heal.
	for _, n := range c.Names() {
		if n == entry || n == victim {
			continue
		}
		if _, err := c.Handle(n, contested); err != nil {
			t.Fatal(err)
		}
	}
	if hits := origin.Hits(contested); hits != 1 {
		t.Fatalf("origin hits after peer fetches = %d, want 1", hits)
	}

	// Heal; the victim rejoins and serves the contested key from a peer.
	c.Heal()
	c.StabilizeAll(2)
	if _, err := c.Handle(victim, contested); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits(contested); hits != 1 {
		t.Fatalf("origin hits after heal = %d, want 1 (exactly one cluster-wide)", hits)
	}
	if err := c.CheckLookupConvergence(contested); err != nil {
		t.Fatal(err)
	}

	// Fingerprint every deterministic observable for the repeat-run check.
	var fp strings.Builder
	fmt.Fprintf(&fp, "owner=%s victim=%s hits=%d", owner, victim, origin.Hits(contested))
	fmt.Fprintf(&fp, " holders=%v", c.Holders(entry, contested))
	for _, n := range c.Names() {
		st := c.NodeByName(n).Stats()
		fmt.Fprintf(&fp, " %s:origin=%d,peer=%d", n, st.OriginFetches, st.PeerHits)
	}
	return fp.String()
}

// TestPartitionMidStampedeDeterministic is the headline acceptance test:
// the partition-mid-stampede scenario holds its invariants and produces an
// identical fingerprint on 5 repeated runs with the same seed.
func TestPartitionMidStampedeDeterministic(t *testing.T) {
	seed := 42 + seedOffset()
	first := runPartitionStampedeScenario(t, seed)
	for run := 1; run < 5; run++ {
		if again := runPartitionStampedeScenario(t, seed); again != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", run, again, first)
		}
	}
}

// TestMaintenanceRoundMessageBudget pins what the overlay's maintenance
// costs: on a converged ring, one Stabilize pings the node's predecessor and
// its successors, each once, so a node sends at most min(N-1, 4+1) overlay
// messages a round, whatever the ring's size.
func TestMaintenanceRoundMessageBudget(t *testing.T) {
	for _, n := range []int{3, 5, 8, 16} {
		c, err := New(Config{N: n, Seed: 1, Latency: time.Millisecond}, NewCountingOrigin())
		if err != nil {
			t.Fatal(err)
		}
		c.StabilizeAll(2)
		budget := min(n-1, 5)
		total := int64(0)
		for _, name := range c.Names() {
			before := c.Sim.Stats()
			c.NodeByName(name).Overlay().Stabilize()
			after := c.Sim.Stats()
			sent := after.Delivered + after.Dropped + after.Blocked - before.Delivered - before.Dropped - before.Blocked
			if sent > int64(budget) {
				t.Errorf("N=%d: %s sent %d overlay messages in one round, budget %d", n, name, sent, budget)
			}
			total += sent
		}
		t.Logf("N=%d: %.2f overlay messages per node per round (budget %d)", n, float64(total)/float64(n), budget)
	}
}
