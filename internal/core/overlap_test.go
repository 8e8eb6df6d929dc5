package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/overlay"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// gatedFS is an in-memory data filesystem whose next hard-state WAL Sync,
// once a gate is armed, first runs the gate: a test holds a node's fsync
// open while it watches what the cluster does meanwhile.
type gatedFS struct {
	*store.MemFS
	mu   sync.Mutex
	gate func()
}

// arm makes gate run at the start of the next Sync of a file under state/.
func (g *gatedFS) arm(gate func()) {
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
}

func (g *gatedFS) OpenAppend(name string) (store.File, error) {
	f, err := g.MemFS.OpenAppend(name)
	if err != nil || !strings.HasPrefix(name, "state/") {
		return f, err
	}
	return gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	store.File
	fs *gatedFS
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.gate = nil
	f.fs.mu.Unlock()
	if gate != nil {
		gate()
	}
	return f.File.Sync()
}

// tcpTrio boots three nodes (edge-0..2) with factor-3 replication, each on
// its own TCP transport on loopback and its own data filesystem, as three
// nakikad processes with -rpc and -peers would be.
func tcpTrio(t *testing.T, fss [3]store.FS) []*Node {
	t.Helper()
	names := []string{"edge-0", "edge-1", "edge-2"}
	trs := make([]*transport.TCP, len(names))
	addrs := make([]string, len(names))
	for i := range trs {
		trs[i] = transport.NewTCP()
		t.Cleanup(trs[i].Close)
		addr, err := trs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr.String()
	}
	nodes := make([]*Node, len(names))
	for i := range nodes {
		ring := overlay.NewRing()
		ring.Transport = trs[i]
		for j, peer := range names {
			if j != i {
				ring.AddRemote(peer, "remote")
				trs[i].AddPeer(peer, addrs[j])
			}
		}
		nodes[i] = newTestNodeUpstream(t, names[i], nil, func(cfg *Config) {
			cfg.Ring = ring
			cfg.Transport = trs[i]
			cfg.ReplicationFactor = 3
			cfg.DataFS = fss[i]
		})
	}
	return nodes
}

// waitHeld polls until every node holds value under each key, or the 5 s
// bound passes; it reports which it was.
func waitHeld(nodes []*Node, site, value string, keys ...string) error {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		missing := ""
		for _, n := range nodes {
			for _, key := range keys {
				if _, v, _, ok := n.LocalStateRecord(site, key); !ok || v != value {
					missing = n.Name() + " lacks " + key
				}
			}
		}
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s after 5 s", missing)
		}
	}
}

// TestOwnerPushesDuringItsFsync pins the owner's overlap: its replica
// pushes are on the wire before it waits for its own fsync, so both
// replicas apply the record while that fsync is still running. The gate
// holds the owner's WAL Sync until both replicas hold the record; an owner
// that synced before pushing would hold it for the whole 5 s bound.
func TestOwnerPushesDuringItsFsync(t *testing.T) {
	const site, value = "overlap.example", "v"
	ownerFS := &gatedFS{MemFS: store.NewMemFS()}
	nodes := tcpTrio(t, [3]store.FS{ownerFS, store.NewMemFS(), store.NewMemFS()})
	key, _ := keyWithSelfAt(t, nodes, site, "edge-0", 0)

	gated := make(chan error, 1)
	ownerFS.arm(func() { gated <- waitHeld(nodes[1:], site, value, key) })
	if err := nodes[0].StatePut(site, key, value); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-gated:
		if err != nil {
			t.Fatalf("the owner's fsync waited for its replicas in vain: %v", err)
		}
	default:
		t.Fatal("the owner's WAL was never synced")
	}
	if err := waitHeld(nodes, site, value, key); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaApplyNotHeldAcrossFsync pins the replica's side: the apply
// lock covers apply and enqueue, not the fsync. The replica's first WAL
// Sync — the one for the first key's push — is held until pushes for two
// more keys have been applied there, and those two then commit in one
// fsync. A replica that held its apply lock across the fsync would keep
// both pushes waiting on it for the whole 5 s bound.
func TestReplicaApplyNotHeldAcrossFsync(t *testing.T) {
	const site, value = "overlap.example", "v"
	replicaFS := &gatedFS{MemFS: store.NewMemFS()}
	nodes := tcpTrio(t, [3]store.FS{store.NewMemFS(), replicaFS, store.NewMemFS()})
	owner, replica := nodes[0], nodes[1]
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		key := fmt.Sprintf("k-%d", i)
		if successorOrder(nodes, site, key)[0] == owner.Name() {
			keys = append(keys, key)
		}
	}

	entered, gated := make(chan struct{}), make(chan error, 1)
	replicaFS.arm(func() {
		close(entered)
		gated <- waitHeld([]*Node{replica}, site, value, keys[1:]...)
	})
	syncs := replica.StoreStats().Syncs
	errs := make(chan error, len(keys))
	put := func(key string) { errs <- owner.StatePut(site, key, value) }
	go put(keys[0])
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first push never reached the replica's fsync")
	}
	go put(keys[1])
	go put(keys[2])
	for range keys {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-gated; err != nil {
		t.Fatalf("pushes were not applied while the replica's fsync ran: %v", err)
	}
	if got := replica.StoreStats().Syncs - syncs; got != 2 {
		t.Errorf("the replica paid %d fsyncs for three records, want 2: the two applied during the first share the next", got)
	}
	if err := waitHeld(nodes, site, value, keys...); err != nil {
		t.Fatal(err)
	}
}
