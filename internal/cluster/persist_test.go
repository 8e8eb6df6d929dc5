package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nakika/internal/cluster/explore"
	"nakika/internal/core"
	"nakika/internal/state"
	"nakika/internal/store"
)

// keysOwnedBy returns the first n keys of the form prefix-NNNN whose ring
// owner for site is the named node. With owner-only placement (replication
// factor 1) those are exactly the keys that live on that node's disk and
// nowhere else.
func keysOwnedBy(c *Cluster, site, owner, prefix string, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		key := fmt.Sprintf("%s-%04d", prefix, i)
		if c.Ring.Successor(state.ReplicaKey(site, key)).Name == owner {
			keys = append(keys, key)
		}
	}
	return keys
}

// runCrashRecoveryScenario is the persistence acceptance scenario: a
// 5-node cluster where every node owns a preserved data directory. One
// node warms its cache (memory + disk tier), then runs a hard-state write
// burst with a crash scripted to land mid-burst at a virtual time. The
// node restarts from its data directory and must recover its hard state
// exactly (all acknowledged writes, nothing else) and serve its warm
// cache from the disk tier with zero additional origin fetches. It
// returns a fingerprint of every deterministic observable.
func runCrashRecoveryScenario(t *testing.T, seed int64) string {
	t.Helper()
	const (
		site    = "site.example.org"
		nPages  = 8
		l1Cap   = 4 // tiny L1 so warming demotes half the pages to disk
		maxPuts = 400
	)
	pageURL := func(i int) string { return fmt.Sprintf("http://%s/page-%d.html", site, i) }

	origin := NewCountingOrigin()
	for i := 0; i < nPages; i++ {
		origin.AddPage(pageURL(i), strings.Repeat(fmt.Sprintf("p%d-", i), 256), 600)
	}
	// Owner-only placement, and only keys the victim owns: this scenario
	// pins the single-node persistence contract (a node recovers exactly
	// its own disk), which replicas would mask by serving the reads.
	c, err := New(Config{N: 5, Seed: seed, Latency: time.Millisecond, Persist: true, Replication: 1,
		Mutate: func(i int, cfg *core.Config) {
			cfg.Cache.MaxEntries = l1Cap
		}}, origin)
	if err != nil {
		t.Fatal(err)
	}
	victim := "node-1"
	node := c.NodeByName(victim)

	// Warm: fetch every page at the victim, then re-touch the first half.
	// With a 4-entry L1 the first pass demotes pages 0-3 to disk; the
	// re-touch promotes them back (leaving the disk copies in place) and
	// demotes pages 4-7. Every page now lives in the disk tier.
	for i := 0; i < nPages; i++ {
		resp, err := c.Handle(victim, pageURL(i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 {
			t.Fatalf("warm fetch %d: status %d", i, resp.Status)
		}
	}
	for i := 0; i < nPages/2; i++ {
		if _, err := c.Handle(victim, pageURL(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The disk tier holds every page plus the cacheable 404s from policy
	// probes (nakika.js, admin walls) that the tiny L1 evicted.
	if got := node.Cache().L2().Len(); got < nPages {
		t.Fatalf("disk tier holds %d entries after warm, want at least %d", got, nPages)
	}
	warmHits := 0
	for i := 0; i < nPages; i++ {
		warmHits += origin.Hits(pageURL(i))
	}
	if warmHits != nPages {
		t.Fatalf("origin fetched %d pages during warm, want %d", warmHits, nPages)
	}

	// Write burst with a crash scripted mid-burst. The victim owns every
	// key, so a put is a local WAL append that sends nothing; each one is
	// charged 100µs of virtual time, which is what carries the burst into
	// the scheduled crash. Writes issued after the crash must fail (the
	// engine is gone); everything acknowledged before it must survive.
	if err := c.Schedule(fmt.Sprintf("at %s crash %s", c.Sim.Now()+10*time.Millisecond, victim)); err != nil {
		t.Fatal(err)
	}
	var acked []string
	burstVal := func(i int) string { return fmt.Sprintf("value-%04d-%s", i, strings.Repeat("x", 512)) }
	for i, key := range keysOwnedBy(c, site, victim, "burst", maxPuts) {
		if err := node.StatePut(site, key, burstVal(i)); err != nil {
			if err != store.ErrClosed {
				t.Fatalf("write %d failed with %v, want ErrClosed after crash", i, err)
			}
			break
		}
		acked = append(acked, key)
		c.Sim.Loop().AdvanceTo(c.Sim.Now() + 100*time.Microsecond)
	}
	if c.Live(victim) {
		t.Fatal("crash never landed: burst too short for the schedule")
	}
	if len(acked) == 0 || len(acked) == maxPuts {
		t.Fatalf("crash did not land mid-burst: %d/%d writes acknowledged", len(acked), maxPuts)
	}

	// Restart from the preserved data directory.
	c.Restart(victim)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	// Hard state recovers exactly: every acknowledged write is present
	// with its value, and nothing unacknowledged appears. The victim's own
	// disk is the only place any of it can come from.
	for i, key := range acked {
		v, ok := node.StateGet(site, key)
		if !ok || v != burstVal(i) {
			t.Fatalf("acknowledged write %s lost or corrupt after recovery (ok=%v)", key, ok)
		}
		if holders := c.StateHolders(site, key); len(holders) != 1 || holders[0] != victim {
			t.Fatalf("%s held by %v, want only %s", key, holders, victim)
		}
	}
	if keys := node.StateKeys(site); len(keys) != len(acked) {
		t.Fatalf("recovered %d keys, want exactly the %d acknowledged", len(keys), len(acked))
	}
	replayStats := node.StoreStats()
	if replayStats.Compactions != 0 {
		t.Fatalf("fresh engine reports %d compactions", replayStats.Compactions)
	}

	// Warm cache recovers from the disk tier: every page is served with
	// the right body and zero additional origin fetches.
	for i := 0; i < nPages; i++ {
		resp, err := c.Handle(victim, pageURL(i))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || !strings.HasPrefix(string(resp.Body), fmt.Sprintf("p%d-", i)) {
			t.Fatalf("rewarm fetch %d: status %d, body %q...", i, resp.Status, resp.Body[:8])
		}
		if !resp.FromCache {
			t.Fatalf("rewarm fetch %d not served from cache", i)
		}
	}
	rewarmHits := 0
	for i := 0; i < nPages; i++ {
		rewarmHits += origin.Hits(pageURL(i))
	}
	if rewarmHits != warmHits {
		t.Fatalf("rewarm cost %d additional origin fetches, want zero", rewarmHits-warmHits)
	}
	cs := node.Cache().Stats()
	if cs.DiskHits < nPages {
		t.Fatalf("disk tier served %d hits, want at least %d", cs.DiskHits, nPages)
	}

	// Fingerprint every deterministic observable for the repeat-run check.
	var fp strings.Builder
	fmt.Fprintf(&fp, "acked=%d replayed=%d", len(acked), replayStats.Replayed)
	fmt.Fprintf(&fp, " origin=%d diskhits=%d demotions=%d", rewarmHits, cs.DiskHits, cs.Demotions)
	for _, key := range node.StateKeys(site) {
		v, _ := node.StateGet(site, key)
		fmt.Fprintf(&fp, " %s=%d", key, len(v))
	}
	for _, n := range c.Names() {
		st := c.NodeByName(n).Stats()
		fmt.Fprintf(&fp, " %s:origin=%d,cache=%d", n, st.OriginFetches, st.CacheHits)
	}
	return fp.String()
}

// TestCrashRecoveryMidBurstDeterministic is the persistence acceptance
// test: the crash-mid-write-burst scenario holds its invariants and
// produces an identical fingerprint on 5 repeated runs with the same
// seed.
func TestCrashRecoveryMidBurstDeterministic(t *testing.T) {
	seed := explore.Seed(7)
	first := runCrashRecoveryScenario(t, seed)
	for run := 1; run < 5; run++ {
		if again := runCrashRecoveryScenario(t, seed); again != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", run, again, first)
		}
	}
}

// TestCrashWithoutPersistStillLosesState pins the opt-in contract: a
// cluster without Persist behaves exactly as before — a crashed node
// comes back empty-handed and refetches from the origin.
func TestCrashWithoutPersistStillLosesState(t *testing.T) {
	origin := NewCountingOrigin()
	url := "http://site.example.org/only.html"
	origin.AddPage(url, "<html>only</html>", 600)
	// Owner-only placement and a key node-0 owns, so its store is the only
	// copy there is.
	c, err := New(Config{N: 3, Seed: 11, Latency: time.Millisecond, Replication: 1}, origin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Handle("node-0", url); err != nil {
		t.Fatal(err)
	}
	node := c.NodeByName("node-0")
	key := keysOwnedBy(c, "site.example.org", "node-0", "k", 1)[0]
	if err := node.StatePut("site.example.org", key, "v"); err != nil {
		t.Fatal(err)
	}
	if _, ok := node.StateGet("site.example.org", key); !ok {
		t.Fatal("write not readable before the crash")
	}
	c.Crash("node-0")
	c.Restart("node-0")
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := node.Cache().Stats(); got.Entries != 0 {
		t.Fatalf("crashed node kept %d cache entries", got.Entries)
	}
	if _, ok := node.StateGet("site.example.org", key); ok {
		t.Fatal("crashed node without persistence kept hard state")
	}
	// node-0 was the page's only holder, so the refetch must go back to
	// the origin: nothing was preserved.
	if _, err := c.Handle("node-0", url); err != nil {
		t.Fatal(err)
	}
	if hits := origin.Hits(url); hits != 2 {
		t.Fatalf("origin hits after lossy restart = %d, want 2 (refetch)", hits)
	}
}
