package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nakika/internal/core"
	"nakika/internal/resource"
	"nakika/internal/transport"
)

// A crash is a process death and a restart a new process: nothing a node
// holds in memory survives it, however the node keeps it. Each test below
// pins one structure a crash used to leave behind.

// TestRestartDropsPendingPublishes: a node that crashes with a failed
// cooperative-cache publish queued comes back with nothing to retry: the
// queue was the dead process's, and so was the copy it would announce.
func TestRestartDropsPendingPublishes(t *testing.T) {
	origin := NewCountingOrigin()
	origin.AddPage(contested, strings.Repeat("x", 2000), 600)
	c, err := New(Config{N: 3, Seed: 1, Latency: time.Millisecond}, origin)
	if err != nil {
		t.Fatal(err)
	}
	owner := c.Owner(contested)
	fetcher := ""
	for _, n := range c.Names() {
		if n != owner {
			fetcher = n
			break
		}
	}
	// With the index owner partitioned away, the fetcher's publish fails
	// and waits for the next maintenance round.
	c.Partition([]string{owner})
	if _, err := c.Handle(fetcher, contested); err != nil {
		t.Fatal(err)
	}
	expositionHas(t, c.NodeByName(fetcher), "nakika_overlay_publishes_pending 1")

	c.Crash(fetcher)
	c.Restart(fetcher)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	expositionHas(t, c.NodeByName(fetcher), "nakika_overlay_publishes_pending 0")
}

// TestRestartedNodeSuspectsNoOne: a restarted node's view of the ring is
// the membership itself until its own first ping round fails. The members
// the dead process suspected are not suspected by the new one.
func TestRestartedNodeSuspectsNoOne(t *testing.T) {
	c, err := New(Config{N: 3, Seed: 1, Latency: time.Millisecond}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	const watcher, down = "node-0", "node-1"
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("GET http://site.example.org/k-%d", i); c.Ring.Successor(k).Name == down {
			key = k
		}
	}
	resolve := func() string {
		t.Helper()
		owner, err := c.NodeByName(watcher).Overlay().LookupName(key)
		if err != nil {
			t.Fatal(err)
		}
		return owner
	}

	c.Crash(down)
	c.StabilizeAll(1)
	if got := resolve(); got == down {
		t.Fatalf("after a failed ping round %s still routes %s's key to it", watcher, down)
	}

	c.Crash(watcher)
	c.Restart(watcher)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := resolve(); got != down {
		t.Errorf("the restarted %s routes %s's key to %s: it suspects a member before any ping of its own", watcher, down, got)
	}
	c.StabilizeAll(1)
	if got := resolve(); got == down {
		t.Errorf("after its own failed ping round the restarted %s still routes %s's key to it", watcher, down)
	}
}

// TestRestartDropsSiteThrottles: a site's resource usage and the throttle
// it earned are the dead process's; the new one admits every request.
func TestRestartDropsSiteThrottles(t *testing.T) {
	const site, name = "heavy.example.org", "node-0"
	c, err := New(Config{N: 1, Seed: 1, Latency: time.Millisecond, Mutate: func(_ int, cfg *core.Config) {
		cfg.EnableResources = true
		cfg.Resources.Capacity = map[resource.Kind]float64{resource.CPU: 100}
	}}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	admitted := func(res *resource.Manager) int {
		n := 0
		for i := 0; i < 100; i++ {
			if res.Admit(site) {
				n++
			}
		}
		return n
	}
	res := c.NodeByName(name).Resources()
	res.Charge(site, resource.CPU, 1000)
	res.ControlOnce()
	if res.Usage(site, resource.CPU) == 0 || admitted(res) == 100 {
		t.Fatalf("the congesting site is not throttled: usage %.2f", res.Usage(site, resource.CPU))
	}

	c.Crash(name)
	c.Restart(name)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	res = c.NodeByName(name).Resources()
	if u := res.Usage(site, resource.CPU); u != 0 {
		t.Errorf("the restarted node reads the site's cpu usage as %.2f, want 0", u)
	}
	if got := admitted(res); got != 100 {
		t.Errorf("the restarted node admitted %d of 100 requests of the site, want every one", got)
	}
}

// TestDeadProcessReachesNoReplica: a test that holds a node's process
// across a restart holds a dead one, and the restarted name does not revive
// it: the dead process's handle on the network was revoked with it, so its
// writes fail as unreachable and reach no replica.
func TestDeadProcessReachesNoReplica(t *testing.T) {
	c, err := New(Config{N: 4, Seed: 1, Latency: time.Millisecond, Replication: 3}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	const site, name = "dead.example.org", "node-0"
	dead := c.NodeByName(name)
	c.Restart(name)
	c.StabilizeAll(4)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k-%d", i)
		err := dead.StatePut(site, key, "from the dead")
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("the dead process's write of %s: %v, want %v", key, err, transport.ErrUnreachable)
		}
		for _, n := range c.Names() {
			if _, v, _, ok := c.NodeByName(n).LocalStateRecord(site, key); ok {
				t.Errorf("the dead process's write of %s reached %s: %q", key, n, v)
			}
		}
	}
}
