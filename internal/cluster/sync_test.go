package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"nakika/internal/cluster/explore"
	"nakika/internal/core"
	"nakika/internal/state"
)

// counterValue reads an unlabelled counter from n's metrics exposition.
func counterValue(t *testing.T, n *core.Node, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := n.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			got, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return got
		}
	}
	t.Fatalf("exposition has no %s", name)
	return 0
}

// TestQuietRepairCostIsFlat: on a converged 5-node, factor-3 ring, six
// maintenance rounds (each node runs its one periodic repair among them)
// deliver the same number of messages at 100 keys as at 1 000. A repair
// exchanges digests of the ranges it holds and moves only what differs, so
// copies the targets already hold cost nothing.
func TestQuietRepairCostIsFlat(t *testing.T) {
	seed := explore.Seed(51)
	msgs := func(keys int) int64 {
		c := bootReplicated(t, 5, seed, 3)
		entry := c.NodeByName("node-0")
		for i := 0; i < keys; i++ {
			if err := entry.StatePut(repSite, burstKey(i), burstVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := c.Sim.Stats().Delivered
		c.StabilizeAll(6)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return c.Sim.Stats().Delivered - before
	}
	small, large := msgs(100), msgs(1000)
	t.Logf("six rounds: %d messages at 100 keys, %d at 1000", small, large)
	if small != large {
		t.Fatalf("six quiet rounds deliver %d messages at 100 keys and %d at 1000, want equal", small, large)
	}
}

// TestCatchUpMovesWhatWasMissed: a persisted node restarts on its own data
// after missing k writes to the range it owns, and its catch-up moves a
// number of records that grows with k, not with the range it holds.
func TestCatchUpMovesWhatWasMissed(t *testing.T) {
	const victim = "node-3"
	moved := func(k int) (moved int64, held int) {
		c, err := New(Config{N: 5, Seed: explore.Seed(52), Latency: time.Millisecond, Replication: 3, Persist: true}, NewCountingOrigin())
		if err != nil {
			t.Fatal(err)
		}
		c.StabilizeAll(4)
		entry := c.NodeByName("node-0")
		for i := 0; i < 1000; i++ {
			if err := entry.StatePut(repSite, burstKey(i), burstVal(i)); err != nil {
				t.Fatal(err)
			}
			if c.Ring.Successor(state.ReplicaKey(repSite, burstKey(i))).Name == victim {
				held++
			}
		}
		c.Crash(victim)
		c.StabilizeAll(1)
		var missed []string
		for i := 0; len(missed) < k; i++ {
			key := fmt.Sprintf("missed-%04d", i)
			if c.Ring.Successor(state.ReplicaKey(repSite, key)).Name != victim {
				continue
			}
			if err := entry.StatePut(repSite, key, "while-down"); err != nil {
				t.Fatal(err)
			}
			missed = append(missed, key)
		}
		c.Restart(victim)
		n := c.NodeByName(victim)
		if _, err := n.CatchUp(); err != nil {
			t.Fatal(err)
		}
		for _, key := range missed {
			if _, val, deleted, ok := n.LocalStateRecord(repSite, key); !ok || deleted || val != "while-down" {
				t.Fatalf("k=%d: catch-up did not bring missed write %s", k, key)
			}
		}
		return counterValue(t, n, "nakika_replication_sync_records_total"), held
	}
	small, held := moved(10)
	large, _ := moved(100)
	t.Logf("catch-up moved %d records after 10 missed writes, %d after 100; the range holds %d", small, large, held)
	if small > 2*10 || large > 2*100 {
		t.Fatalf("catch-up moved %d records after 10 missed writes and %d after 100, want at most 2 per missed write (the range holds %d)", small, large, held)
	}
	if large <= small {
		t.Fatalf("catch-up moved %d records after 100 missed writes, not more than the %d after 10", large, small)
	}
}
