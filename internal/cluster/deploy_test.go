package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"nakika/internal/deploy"
	"nakika/internal/overlay"
	"nakika/internal/state"
)

const deploySite = "svc.example.org"

// ringOrder returns the cluster's node names sorted by ring position
// starting at the owner of the replicated key — the key's successor
// (replica-placement) order. Node IDs hash node names, so this order is a
// pure function of cluster size, independent of the scenario seed.
func ringOrder(c *Cluster, replicaKey string) []string {
	names := c.Names()
	start := uint64(overlay.HashID(replicaKey))
	sort.Slice(names, func(i, j int) bool {
		di := uint64(overlay.HashID(names[i])) - start
		dj := uint64(overlay.HashID(names[j])) - start
		return di < dj
	})
	return names
}

// deployBundle is a minimal deployable service script: every request gets
// a generated response whose body is the bundle's marker, so which script
// version served a request is readable off the response.
func deployBundle(marker string) string {
	return fmt.Sprintf("onRequest = function () { return {status: 200, body: %q}; };", marker)
}

// runDeployChurnScenario is the deployment acceptance scenario: a 6-node
// ring with factor-3 replication serves scripted
// traffic from a deployed bundle while the fault DSL crashes one node,
// publishes a new script version mid-churn, and restarts the dead node.
// Every response must come from exactly one script version (v1 or v2,
// never a torn mix), the cluster must converge on the new generation —
// including the node that was dead while it propagated — and the harness
// must report no silent fault-action failures. Returns a fingerprint of
// every deterministic observable. The nightly soak sweeps this scenario
// across seed offsets like the other cluster scenarios.
func runDeployChurnScenario(t *testing.T, seed int64) string {
	t.Helper()
	c := bootReplicated(t, 6, seed, 0)
	c.DefineBundle("v1", deployBundle("v1"))
	c.DefineBundle("v2", deployBundle("v2"))

	entry := fmt.Sprintf("node-%d", ((seed%6)+6)%6)
	victim := fmt.Sprintf("node-%d", ((seed+3)%6+6)%6)
	if victim == entry {
		t.Fatalf("scenario bug: entry %s == victim %s", entry, victim)
	}

	gen1, err := c.Deploy(entry, deploySite, "v1")
	if err != nil {
		t.Fatalf("deploy v1: %v", err)
	}
	c.StabilizeAll(2)
	if err := c.CheckDeployConvergence(deploySite, gen1); err != nil {
		t.Fatal(err)
	}

	// Script the churn around the second deploy: the victim dies before v2
	// is published (it misses the record entirely), v2 is published by the
	// DSL while the victim is down, and the victim restarts empty-handed.
	// The deploy runs at the start of the round after its directive fires,
	// so the restart waits long enough for it: a deploy that races the
	// restart of the record's owner reads the record from an owner that
	// has not caught up yet, and assigns generation 1 again.
	now := c.Sim.Now()
	schedule := fmt.Sprintf(
		"at %s crash %s\nat %s deploy %s %s v2\nat %s restart %s",
		now+20*time.Millisecond, victim,
		now+40*time.Millisecond, entry, deploySite,
		now+400*time.Millisecond, victim,
	)
	if err := c.Schedule(schedule); err != nil {
		t.Fatal(err)
	}

	// Drive traffic interleaved with maintenance so the scheduled events
	// fire, the deferred deploy executes, and repair catches the restarted
	// victim up. Responses may come from v1 before the swap and v2 after;
	// anything else (mixed, empty, error) is a torn deploy.
	url := "http://" + deploySite + "/page"
	sawV1, sawV2 := 0, 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 12; i++ {
			resp, err := c.Handle(entry, url)
			if err != nil {
				t.Fatalf("round %d request %d: %v", round, i, err)
			}
			switch string(resp.Body) {
			case "v1":
				sawV1++
			case "v2":
				sawV2++
			default:
				t.Fatalf("round %d request %d: body %q is neither script version", round, i, resp.Body)
			}
		}
		c.StabilizeAll(2)
	}
	if sawV1 == 0 || sawV2 == 0 {
		t.Fatalf("deploy did not land mid-burst: %d v1 responses, %d v2 responses", sawV1, sawV2)
	}

	// Full convergence, including the restarted victim: repair restored its
	// deployment record and its sync loop recompiled the active bundle.
	c.StabilizeAll(6)
	if err := c.CheckDeployConvergence(deploySite, gen1+1); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	var fp strings.Builder
	fmt.Fprintf(&fp, "entry=%s victim=%s v1=%d v2=%d", entry, victim, sawV1, sawV2)
	for _, name := range c.Names() {
		fmt.Fprintf(&fp, " %s:gen=%d", name, c.NodeByName(name).AppliedGeneration(deploySite))
	}
	fmt.Fprintf(&fp, " holders=%v delivered=%d", c.StateHolders(deploySite, deploy.StateKey), c.Sim.Stats().Delivered)
	return fp.String()
}

// TestDeployMidChurnConverges drives the deployment churn scenario across
// seeds and pins determinism: repeat runs fingerprint identically.
func TestDeployMidChurnConverges(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		seed := seed + seedOffset()
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			first := runDeployChurnScenario(t, seed)
			second := runDeployChurnScenario(t, seed)
			if first != second {
				t.Fatalf("scenario not deterministic under seed %d:\n first: %s\nsecond: %s", seed, first, second)
			}
		})
	}
}

// TestConcurrentDeploysConvergeLWW races two deploys of the same site from
// opposite sides of a partition. Both sides accept a generation-1 record
// with different scripts; after heal and repair, last-writer-wins picks
// exactly one and every node — record and pipeline both — converges on it.
//
// The partition is cut along ring geometry (which depends only on node
// names, never on the seed): the record's owner and its first successor on
// one side, everything else on the other. With every view left intact
// (no maintenance runs while split), the owner's write acks on its in-side
// replica, and the far side's owner-routing walks the successor order past
// the two unreachable candidates to an acting owner whose own replica
// targets are in-side — so both deploys genuinely commit concurrently.
func TestConcurrentDeploysConvergeLWW(t *testing.T) {
	c := bootReplicated(t, 6, 51+seedOffset(), 0)
	c.DefineBundle("va", deployBundle("va"))
	c.DefineBundle("vb", deployBundle("vb"))

	order := ringOrder(c, state.ReplicaKey(deploySite, deploy.StateKey))
	sideA := order[:2]
	sideB := order[2:]
	c.Partition(sideA, sideB)

	genA, errA := c.Deploy(order[0], deploySite, "va") // the record's true owner
	genB, errB := c.Deploy(order[2], deploySite, "vb") // acting owner across the cut
	if errA != nil || errB != nil {
		t.Fatalf("partitioned deploys failed: sideA=(%d,%v) sideB=(%d,%v)", genA, errA, genB, errB)
	}
	if genA != 1 || genB != 1 {
		t.Fatalf("both sides should assign generation 1 (neither saw the other's record): got %d and %d", genA, genB)
	}
	if got := c.NodeByName(order[0]).AppliedGeneration(deploySite); got != 1 {
		t.Fatalf("side A publisher serves gen %d, want 1", got)
	}
	if got := c.NodeByName(order[2]).AppliedGeneration(deploySite); got != 1 {
		t.Fatalf("side B publisher serves gen %d, want 1", got)
	}

	c.Heal()
	c.StabilizeAll(6)
	if err := c.CheckDeployConvergence(deploySite, 1); err != nil {
		t.Fatal(err)
	}

	// Record convergence implies pipeline convergence: every node serves
	// the same script body — one of the two candidates, on all six nodes.
	winner := ""
	url := "http://" + deploySite + "/page"
	for _, name := range c.Names() {
		resp, err := c.Handle(name, url)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := string(resp.Body)
		if body != "va" && body != "vb" {
			t.Fatalf("%s serves %q, not a deployed script version", name, body)
		}
		if winner == "" {
			winner = body
		} else if body != winner {
			t.Fatalf("nodes diverge after heal: %s serves %q, earlier nodes served %q", name, body, winner)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackPastRetentionRejected publishes more versions than the
// retention window keeps and verifies rollback honors the window: trimmed
// generations are rejected, retained ones re-activate cluster-wide, and
// generation numbers never regress on the next deploy.
func TestRollbackPastRetentionRejected(t *testing.T) {
	c := bootReplicated(t, 4, 61+seedOffset(), 0)
	total := deploy.Retention + 2
	lastGen := uint64(0)
	for i := 1; i <= total; i++ {
		name := fmt.Sprintf("v%d", i)
		c.DefineBundle(name, deployBundle(name))
		gen, err := c.Deploy("node-0", deploySite, name)
		if err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
		if gen != uint64(i) {
			t.Fatalf("deploy %s assigned gen %d, want %d", name, gen, i)
		}
		lastGen = gen
	}

	node := c.NodeByName("node-1") // rollback from a node other than the publisher
	if err := node.Rollback(deploySite, 1); err == nil {
		t.Fatal("rollback to a trimmed generation succeeded, want rejection")
	} else if !strings.Contains(err.Error(), "not retained") {
		t.Fatalf("rollback rejection has wrong cause: %v", err)
	}

	oldest := lastGen - deploy.Retention + 1 // oldest generation still retained
	if err := node.Rollback(deploySite, oldest); err != nil {
		t.Fatalf("rollback to retained gen %d: %v", oldest, err)
	}
	c.StabilizeAll(3)
	if err := c.CheckDeployConvergence(deploySite, oldest); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Handle("node-2", "http://"+deploySite+"/page")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("v%d", oldest); string(resp.Body) != want {
		t.Fatalf("after rollback the cluster serves %q, want %q", resp.Body, want)
	}

	// Generations never regress: the next deploy counts past the highest
	// ever assigned, not past the rolled-back active.
	c.DefineBundle("next", deployBundle("next"))
	gen, err := c.Deploy("node-0", deploySite, "next")
	if err != nil {
		t.Fatal(err)
	}
	if gen != lastGen+1 {
		t.Fatalf("deploy after rollback assigned gen %d, want %d", gen, lastGen+1)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedNodeCatchesUpOnDeploy kills a node, publishes while it is
// dead, and verifies the existing anti-entropy machinery alone brings it
// back in sync: repair restores its copy of the deployment record, and its
// sync pass compiles and swaps the active bundle.
func TestCrashedNodeCatchesUpOnDeploy(t *testing.T) {
	c := bootReplicated(t, 6, 71+seedOffset(), 0)
	c.DefineBundle("v1", deployBundle("v1"))
	c.DefineBundle("v2", deployBundle("v2"))

	gen1, err := c.Deploy("node-0", deploySite, "v1")
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(2)
	if err := c.CheckDeployConvergence(deploySite, gen1); err != nil {
		t.Fatal(err)
	}

	const victim = "node-4"
	c.Crash(victim)
	gen2, err := c.Deploy("node-0", deploySite, "v2")
	if err != nil {
		t.Fatalf("deploy with %s dead: %v", victim, err)
	}
	c.StabilizeAll(4)

	c.Restart(victim)
	c.StabilizeAll(6)
	if got := c.NodeByName(victim).AppliedGeneration(deploySite); got != gen2 {
		t.Fatalf("restarted %s serves gen %d, want %d", victim, got, gen2)
	}
	resp, err := c.Handle(victim, "http://"+deploySite+"/page")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "v2" {
		t.Fatalf("restarted %s serves %q, want the post-crash deploy %q", victim, resp.Body, "v2")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
