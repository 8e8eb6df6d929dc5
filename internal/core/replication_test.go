package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/deploy"
	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
	"nakika/internal/state"
	"nakika/internal/transport"
)

// sentLog wraps a transport and records every non-overlay RPC sent through
// it as "<to> <type>", so a test can say exactly which messages an
// operation cost and to whom.
type sentLog struct {
	transport.Transport
	mu   sync.Mutex
	sent []string
}

func (s *sentLog) Call(from, to string, msg transport.Message) (transport.Message, error) {
	if !strings.HasPrefix(msg.Type, "ov.") {
		s.mu.Lock()
		s.sent = append(s.sent, to+" "+msg.Type)
		s.mu.Unlock()
	}
	return s.Transport.Call(from, to, msg)
}

func (s *sentLog) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sent
	s.sent = nil
	return out
}

// dropGets wraps a transport and, once on, fails every rep.get sent
// through it while passing everything else: owners that cannot be read
// but can still be written.
type dropGets struct {
	transport.Transport
	on atomic.Bool
}

func (d *dropGets) Call(from, to string, msg transport.Message) (transport.Message, error) {
	if d.on.Load() && msg.Type == msgRepGet {
		return transport.Message{}, fmt.Errorf("rep.get to %s dropped", to)
	}
	return d.Transport.Call(from, to, msg)
}

// routeRing boots count nodes (edge-0..) with factor-3 replication on one
// simulated network and returns them with the network and its send log.
func routeRing(t *testing.T, count int, upstream Fetcher, mutate func(*Config)) ([]*Node, *transport.Sim, *sentLog) {
	t.Helper()
	sim := transport.NewSim(transport.SimConfig{Seed: 1})
	log := &sentLog{Transport: sim}
	ring := overlay.NewRing()
	ring.Transport = log
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = newTestNodeUpstream(t, fmt.Sprintf("edge-%d", i), upstream, func(cfg *Config) {
			cfg.Ring = ring
			cfg.ReplicationFactor = 3
			if mutate != nil {
				mutate(cfg)
			}
		})
	}
	return nodes, sim, log
}

// successorOrder returns the nodes' names in ring order starting at the
// owner of (site, key): the record's acting owner, then the candidates
// failover walks through.
func successorOrder(nodes []*Node, site, key string) []string {
	start := uint64(overlay.HashID(state.ReplicaKey(site, key)))
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name()
	}
	sort.Slice(names, func(i, j int) bool {
		return uint64(overlay.HashID(names[i]))-start < uint64(overlay.HashID(names[j]))-start
	})
	return names
}

// keyWithSelfAt returns a key of site whose successor order has self at
// one of the given positions.
func keyWithSelfAt(t *testing.T, nodes []*Node, site, self string, positions ...int) (string, []string) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("k-%d", i)
		order := successorOrder(nodes, site, key)
		for _, p := range positions {
			if order[p] == self {
				return key, order
			}
		}
	}
	t.Fatalf("no key puts %s at positions %v", self, positions)
	return "", nil
}

// TestRoute pins the one owner-routing loop every replicated record type
// goes through, once instead of per caller.
func TestRoute(t *testing.T) {
	const site = "route.example.org"
	get := func(key string) transport.Message {
		return transport.Message{Type: msgRepGet, Body: encodeRepForward(repForward{Site: site, Key: key})}
	}
	// run routes msg for key from edge-0 with a local arm that only records
	// that it ran.
	run := func(self *Node, key string, msg transport.Message) (via string, failedOver, ranLocal bool, err error) {
		_, via, failedOver, err = self.route(nil, site, key, msg.Type, func() []byte { return msg.Body }, func() (transport.Message, error) {
			ranLocal = true
			return transport.Message{}, nil
		})
		return via, failedOver, ranLocal, err
	}

	t.Run("owner is self", func(t *testing.T) {
		nodes, _, log := routeRing(t, 6, &memOrigin{}, nil)
		key, _ := keyWithSelfAt(t, nodes, site, "edge-0", 0)
		via, failedOver, ranLocal, err := run(nodes[0], key, get(key))
		if err != nil || via != "edge-0" || failedOver || !ranLocal {
			t.Fatalf("route = (via %q, failedOver %v, local %v, err %v), want the local arm on edge-0", via, failedOver, ranLocal, err)
		}
		if sent := log.take(); len(sent) != 0 {
			t.Fatalf("an operation this node owns sent %v", sent)
		}
	})

	t.Run("owner is remote", func(t *testing.T) {
		nodes, _, log := routeRing(t, 6, &memOrigin{}, nil)
		key, order := keyWithSelfAt(t, nodes, site, "edge-0", 4, 5)
		via, failedOver, ranLocal, err := run(nodes[0], key, get(key))
		if err != nil || via != order[0] || failedOver || ranLocal {
			t.Fatalf("route = (via %q, failedOver %v, local %v, err %v), want one answer from %s", via, failedOver, ranLocal, err, order[0])
		}
		if sent, want := log.take(), []string{order[0] + " " + msgRepGet}; !reflect.DeepEqual(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
	})

	t.Run("owner unreachable", func(t *testing.T) {
		nodes, sim, log := routeRing(t, 6, &memOrigin{}, nil)
		key, order := keyWithSelfAt(t, nodes, site, "edge-0", 4, 5)
		sim.Crash(order[0])
		via, failedOver, ranLocal, err := run(nodes[0], key, get(key))
		if err != nil || via != order[1] || !failedOver || ranLocal {
			t.Fatalf("route = (via %q, failedOver %v, local %v, err %v), want a failover to %s", via, failedOver, ranLocal, err, order[1])
		}
		if sent, want := log.take(), []string{order[0] + " " + msgRepGet, order[1] + " " + msgRepGet}; !reflect.DeepEqual(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
	})

	t.Run("owner refuses", func(t *testing.T) {
		// A message the owner's handler rejects: the refusal is the
		// operation's result, so no successor is asked.
		nodes, _, log := routeRing(t, 6, &memOrigin{}, nil)
		key, order := keyWithSelfAt(t, nodes, site, "edge-0", 4, 5)
		via, failedOver, ranLocal, err := run(nodes[0], key, transport.Message{Type: "rep.bogus"})
		if !transport.IsRemote(err) || via != order[0] || failedOver || ranLocal {
			t.Fatalf("route = (via %q, failedOver %v, local %v, err %v), want %s's remote error as is", via, failedOver, ranLocal, err, order[0])
		}
		if sent, want := log.take(), []string{order[0] + " rep.bogus"}; !reflect.DeepEqual(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
	})

	t.Run("no candidate reachable", func(t *testing.T) {
		nodes, sim, log := routeRing(t, 6, &memOrigin{}, nil)
		key, order := keyWithSelfAt(t, nodes, site, "edge-0", 4, 5)
		for _, n := range nodes[1:] {
			sim.Crash(n.Name())
		}
		_, _, ranLocal, err := run(nodes[0], key, get(key))
		if err == nil || ranLocal || transport.IsRemote(err) ||
			!strings.Contains(err.Error(), msgRepGet) || !strings.Contains(err.Error(), site+"/"+key) {
			t.Fatalf("route = (local %v, err %v), want an error naming %s and %s/%s", ranLocal, err, msgRepGet, site, key)
		}
		// Replication factor 3: four attempts, the owner first, each at a
		// different candidate (which ones the overlay names once its own
		// routing hops fail too is its business).
		sent := log.take()
		tried := make(map[string]bool)
		for _, s := range sent {
			tried[s] = true
		}
		if len(sent) != 4 || len(tried) != 4 || sent[0] != order[0]+" "+msgRepGet {
			t.Fatalf("sent %v, want 4 attempts at distinct candidates starting with %s", sent, order[0])
		}
	})

	t.Run("replication off", func(t *testing.T) {
		// No overlay, so no replication: every record is local and the
		// transport the node was given is never used, whatever the operation.
		log := &sentLog{Transport: transport.NewLocal()}
		n := newTestNodeUpstream(t, "edge-0", &memOrigin{}, func(cfg *Config) { cfg.Transport = log })
		if _, _, ranLocal, err := run(n, "k", get("k")); err != nil || !ranLocal {
			t.Fatalf("route = (local %v, err %v), want the local arm", ranLocal, err)
		}
		if err := n.StatePut(site, "k", "v1"); err != nil {
			t.Fatal(err)
		}
		if v, ok := n.StateGet(site, "k"); !ok || v != "v1" {
			t.Fatalf("get after put = (%q, %v)", v, ok)
		}
		if err := n.StateDelete(site, "k"); err != nil {
			t.Fatal(err)
		}
		if v, ok := n.StateGet(site, "k"); ok {
			t.Fatalf("get after delete = %q", v)
		}
		token, ok := n.LeaseAcquire(site, "job", time.Minute)
		if !ok || token != 1 {
			t.Fatalf("acquire = (%d, %v), want (1, true)", token, ok)
		}
		if !n.LeaseRenew(site, "job", token, time.Minute) {
			t.Fatal("renew refused")
		}
		if err := n.FencedStatePut(site, "k", "v2", "job", token); err != nil {
			t.Fatal(err)
		}
		if v, ok := n.StateGet(site, "k"); !ok || v != "v2" {
			t.Fatalf("get after fenced put = (%q, %v)", v, ok)
		}
		if !n.LeaseRelease(site, "job", token) {
			t.Fatal("release refused")
		}
		if n.LeaseRenew(site, "job", token, time.Minute) {
			t.Fatal("renew of a released lease accepted")
		}
		if st := n.Stats().Lease; st.Acquired != 1 || st.Renewed != 1 || st.Released != 1 || st.FencedWrites != 1 {
			t.Fatalf("lease stats = %+v, want one of each", st)
		}
		if sent := log.take(); len(sent) != 0 {
			t.Fatalf("a node without replication sent %v", sent)
		}
	})
}

// TestDeployNeverOverwritesUnreadRecord: a deploy or rollback whose read
// of the site's record no owner answered fails with that error and leaves
// the record as it was, instead of writing one built from an empty record
// (which would keep the new generation alone).
func TestDeployNeverOverwritesUnreadRecord(t *testing.T) {
	const site = "gens.example.org"
	drop := &dropGets{}
	nodes, _, _ := routeRing(t, 6, &memOrigin{}, func(cfg *Config) {
		drop.Transport = cfg.Ring.Transport
		cfg.Transport = drop
	})
	// Deploy from a node outside the record's replica set, so every read of
	// the record is a rep.get.
	order := successorOrder(nodes, site, deploy.StateKey)
	var deployer *Node
	for _, n := range nodes {
		if n.Name() == order[len(order)-1] {
			deployer = n
		}
	}
	for i := 1; i <= 3; i++ {
		if _, err := deployer.Deploy(site, fmt.Sprintf("onRequest = function () { return {status: 200, body: \"v%d\"}; };", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	records := func() []string {
		var out []string
		for _, n := range nodes {
			ver, value, deleted, ok := n.LocalStateRecord(site, deploy.StateKey)
			out = append(out, fmt.Sprintf("%s %d %v %v %q", n.Name(), ver, deleted, ok, value))
		}
		return out
	}
	before := records()
	if st, _, err := deployer.deployRecord(site); err != nil || len(st.Bundles) != 3 {
		t.Fatalf("record holds %d generations (err %v), want 3", len(st.Bundles), err)
	}

	drop.on.Store(true)
	if _, err := deployer.Deploy(site, `onRequest = function () { return {status: 200, body: "v4"}; };`, ""); err == nil || !strings.Contains(err.Error(), "no reachable owner") {
		t.Fatalf("deploy over an unread record = %v, want the read's error", err)
	}
	if after := records(); !reflect.DeepEqual(after, before) {
		t.Fatalf("deploy changed the record:\nbefore %v\nafter  %v", before, after)
	}
	if err := deployer.Rollback(site, 2); err == nil || !strings.Contains(err.Error(), "no reachable owner") {
		t.Fatalf("rollback over an unread record = %v, want the read's error", err)
	}
	if after := records(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rollback changed the record:\nbefore %v\nafter  %v", before, after)
	}
}

// TestUnavailableCounted: a get, put and delete no candidate answers each
// fail once in nakika_replication_unavailable_total under their op.
func TestUnavailableCounted(t *testing.T) {
	const site = "isolated.example.org"
	nodes, sim, _ := routeRing(t, 6, &memOrigin{}, nil)
	key, _ := keyWithSelfAt(t, nodes, site, "edge-0", 4, 5)
	for _, n := range nodes[1:] {
		sim.Crash(n.Name())
	}
	self := nodes[0]
	if _, ok := self.StateGet(site, key); ok {
		t.Fatal("an isolated get read a value")
	}
	if err := self.StatePut(site, key, "v"); err == nil {
		t.Fatal("an isolated put was acknowledged")
	}
	if err := self.StateDelete(site, key); err == nil {
		t.Fatal("an isolated delete was acknowledged")
	}
	var sb strings.Builder
	if err := self.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"get", "put", "delete"} {
		if line := fmt.Sprintf(`nakika_replication_unavailable_total{op=%q} 1`+"\n", op); !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// TestVersionTieCounted: a remote record with the local record's version
// and another origin is a write last-writer-wins discards, and moves
// nakika_replication_version_ties_total once, whichever of the two wins; a
// record applied again, or superseding by version, is no tie.
func TestVersionTieCounted(t *testing.T) {
	n := newTestNode(t, "edge-tie", newMemOrigin(), nil)
	ties := func() string {
		var sb strings.Builder
		if err := n.Metrics().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "nakika_replication_version_ties_total "); ok {
				return v
			}
		}
		t.Fatal("exposition lacks nakika_replication_version_ties_total")
		return ""
	}
	for _, step := range []struct {
		rec  state.Rec
		ties string
	}{
		{state.Rec{Ver: 3, Origin: "edge-b", Value: "b3"}, "0"},
		{state.Rec{Ver: 3, Origin: "edge-b", Value: "b3"}, "0"}, // the same record again
		{state.Rec{Ver: 4, Origin: "edge-b", Value: "b4"}, "0"},
		{state.Rec{Ver: 4, Origin: "edge-a", Value: "a4"}, "1"}, // loses the tie
		{state.Rec{Ver: 4, Origin: "edge-c", Value: "c4"}, "2"}, // wins it
	} {
		step.rec.Site, step.rec.Key = "tie.example.org", "k"
		if _, err := n.applyPush(step.rec, nil); err != nil {
			t.Fatal(err)
		}
		if got := ties(); got != step.ties {
			t.Errorf("after %s's version %d: %s ties, want %s", step.rec.Origin, step.rec.Ver, got, step.ties)
		}
	}
	if _, origin, _, v, _ := n.store.GetVersioned("tie.example.org", "k"); v != "c4" {
		t.Errorf("the record is %s's %q; want the tie's winner, edge-c's c4", origin, v)
	}
}

// TestLargeObjectIndexSurvivesCrashes: on an 8-node ring one node ingests an
// object and a second assembles a full copy from it, so the cooperative
// index holds both. Then the key's index owner crashes — its first successor
// keeps a copy of each entry — or, separately, the first holder does: either
// way a node that never saw the object serves it from the survivor with zero
// origin fetches.
func TestLargeObjectIndexSurvivesCrashes(t *testing.T) {
	const url = "http://big.example.org/iso"
	body := lobBody(30_000)
	for _, crash := range []string{"index owner", "first holder"} {
		t.Run(crash, func(t *testing.T) {
			origin := &rangeOrigin{url: url, body: body}
			nodes, sim, _ := routeRing(t, 8, origin, lobConfig(4096, 10_000))
			owner, err := nodes[0].Overlay().LookupName("GET " + url)
			if err != nil {
				t.Fatal(err)
			}
			var others []*Node
			var ownerNode *Node
			for _, n := range nodes {
				if n.Name() == owner {
					ownerNode = n
				} else {
					others = append(others, n)
				}
			}
			first, second, reader := others[0], others[1], others[2]
			read := func(n *Node) {
				t.Helper()
				resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
				if err != nil {
					t.Fatal(err)
				}
				if err := resp.Materialize(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resp.Body, body) {
					t.Fatalf("%s served a body that differs", n.Name())
				}
			}
			read(first)
			read(second)
			if st := second.LargeObject(); st.Adopted != 1 || st.SegPeerFetches != 8 {
				t.Fatalf("%s did not assemble its copy from %s: %+v", second.Name(), first.Name(), st)
			}
			down := ownerNode
			if crash == "first holder" {
				down = first
			}
			sim.Crash(down.Name())
			down.Crash()
			read(reader)
			if full, ranged, _ := origin.counts(); full != 1 || ranged != 0 {
				t.Errorf("origin fetches = %d full, %d range; want only the first node's", full, ranged)
			}
			if st := reader.LargeObject(); st.Adopted != 1 || st.SegPeerFetches != 8 {
				t.Errorf("%s did not serve from a surviving holder: %+v", reader.Name(), st)
			}
		})
	}
}
