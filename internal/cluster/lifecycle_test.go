package cluster

import (
	"testing"
	"time"

	"nakika/internal/state"
)

// tickUntil drives core.Node.Tick, the schedule nakikad runs on the wall
// clock, on every live node of c in virtual time up to end: it advances the
// simulated network to the earliest instant a node's next job is due and
// calls that node's Tick there (ties in boot order). Tick runs from the test
// goroutine, never inside an event of the loop, where sending is forbidden.
// due keeps each node's next instant across calls; a node not in it has its
// first Tick due at once.
func tickUntil(c *Cluster, due map[string]time.Duration, end time.Duration) {
	for {
		name, at := "", end+1
		for _, n := range c.Names() {
			if c.Live(n) && due[n] < at {
				name, at = n, due[n]
			}
		}
		if name == "" {
			c.Sim.Loop().AdvanceTo(end)
			return
		}
		c.Sim.Loop().AdvanceTo(at)
		next := c.NodeByName(name).Tick()
		due[name] = time.Duration(next.UnixNano())
		if next.IsZero() { // stopped: it runs nothing again
			due[name] = 1<<63 - 1
		}
	}
}

// TestJoinerCatchesUpBeforeItsFirstRound boots a persisted node into a
// running cluster and drives every node's Tick in virtual time. The
// joiner's first Tick pulls the key range it now owns and runs no
// maintenance round; its first round comes 5 s after the pull returned,
// with the catch-up already cleared, and no second pull.
func TestJoinerCatchesUpBeforeItsFirstRound(t *testing.T) {
	origin := NewCountingOrigin()
	c, err := New(Config{N: 5, Seed: 41 + seedOffset(), Latency: time.Millisecond, Persist: true}, origin)
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	entry := c.NodeByName("node-0")
	vals := make(map[string]string)
	for i := 0; i < 80; i++ {
		if err := entry.StatePut(repSite, burstKey(i), burstVal(i)); err != nil {
			t.Fatal(err)
		}
		vals[burstKey(i)] = burstVal(i)
	}
	joiner, err := c.AddNode(origin)
	if err != nil {
		t.Fatal(err)
	}
	jn := c.NodeByName(joiner)
	if c.DataFS(joiner) == nil {
		t.Fatal("the joiner has no data directory")
	}
	expositionHas(t, jn, "nakika_replication_catchup_pending 1")

	due := make(map[string]time.Duration)
	tickUntil(c, due, c.Sim.Now())
	if st := jn.Stats().CatchUp; st.Pending || st.Attempts != 1 {
		t.Fatalf("after the joiner's first Tick its catch-up is %+v, want one pull that cleared it", st)
	}
	expositionHas(t, jn, "nakika_maintenance_rounds_total 0")
	owned := 0
	for k, v := range vals {
		if c.Ring.Successor(state.ReplicaKey(repSite, k)).Name != joiner {
			continue
		}
		owned++
		if _, val, deleted, ok := jn.LocalStateRecord(repSite, k); !ok || deleted || val != v {
			t.Fatalf("the joiner's catch-up did not bring owned key %s", k)
		}
	}
	if owned == 0 {
		t.Fatal("the joiner owns none of the keys: the pull was not exercised")
	}

	// The round is due 5 s after the pull returned. A Tick may take a job
	// up to half a control interval early, so 4 s on it has not run, and
	// by 6 s it has run once.
	caughtUp := c.Sim.Now()
	tickUntil(c, due, caughtUp+4*time.Second)
	expositionHas(t, jn, "nakika_maintenance_rounds_total 0")
	tickUntil(c, due, caughtUp+6*time.Second)
	expositionHas(t, jn, "nakika_maintenance_rounds_total 1")
	if st := jn.Stats().CatchUp; st.Pending || st.Attempts != 1 {
		t.Fatalf("after the first round the joiner's catch-up is %+v, want the one boot pull", st)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
