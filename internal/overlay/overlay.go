// Package overlay implements the structured overlay network Na Kika uses to
// coordinate local caches and enable incremental deployment (Section 3.4).
//
// The paper treats the overlay largely as a black box provided by an
// existing DHT (Coral in the prototype). This reproduction provides a
// Chord-style consistent-hashing overlay with per-node routing state: node
// and key identifiers are SHA-1 hashes on a 160-bit ring, each node
// maintains a successor list and a finger table for O(log n) lookups, and
// the key-to-node mapping is used for two purposes:
//
//   - a cooperative cache index mapping resource cache keys to the nodes
//     that hold cached copies, so one cached copy anywhere in the network is
//     sufficient to avoid an origin access, and
//   - a redirector that stands in for Coral's DNS redirection, returning a
//     nearby node for a client region.
//
// All inter-node protocol traffic — iterative lookups, index
// publish/locate, successor-list and finger maintenance — flows through a
// transport.Transport. The default transport is direct in-process calls
// (the original single-process simulation); the same protocol code runs
// over the TCP transport for real multi-process clusters and over the
// fault-injecting simulated transport for partition/churn testing.
package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"nakika/internal/loadview"
	"nakika/internal/transport"
)

// ID is a point on the 160-bit ring, truncated to 64 bits for arithmetic
// convenience (collision probability is irrelevant at the scales involved).
type ID uint64

// HashID maps an arbitrary string to a ring position.
func HashID(s string) ID {
	sum := sha1.Sum([]byte(s))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// between reports whether id lies in the half-open ring interval (from, to].
func between(id, from, to ID) bool {
	if from < to {
		return id > from && id <= to
	}
	if from > to {
		return id > from || id <= to
	}
	return true // from == to: full circle
}

// Entry is one cooperative-cache index record: a node that holds a cached
// copy of the keyed resource.
type Entry struct {
	NodeName string
	Expires  time.Time
}

// ref names a node position on the ring; routing tables hold refs rather
// than node pointers so the same tables describe in-process and remote
// peers. A zero ref (empty name) means "unknown".
type ref struct {
	name string
	id   ID
}

// Node is a member of the overlay.
type Node struct {
	Name   string
	Region string
	ID     ID

	mu      sync.Mutex
	ring    *Ring
	index   map[string][]Entry // keys this node is responsible for
	alive   bool
	remote  bool // membership stub for a node served by another process
	pred    ref
	succs   []ref
	fingers []ref // fingers[b] ~ successor(ID + 2^b)
	lookups int64
	hops    int64
	// churn, when non-nil, is invoked (outside locks) by Stabilize when the
	// round changed this node's replication responsibilities: the
	// predecessor died or the successor-list head changed.
	churn func()
	// copies reports whether the node holds a fresh copy of a key and until
	// when (see SetCopies); Publish announces nothing without it.
	copies func(key string) (time.Time, bool)
	// loadLocal / loadObserve implement load gossip (see SetLoadGossip):
	// maintenance RPCs piggyback the sender's current load score and report
	// observed peer scores, so the offload layer holds a fresh load view of
	// the node's successors and predecessor without any extra messages.
	loadLocal   func() float64
	loadObserve func(peer string, load float64)
}

// NodeStats reports per-node overlay activity. IndexKeys counts the keys of
// this node's index slice that still have a live entry.
type NodeStats struct {
	Lookups   int64
	TotalHops int64
	IndexKeys int
}

// Stats returns a snapshot of the node's counters; the node's metrics
// registry exports them.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStats{Lookups: n.lookups, TotalHops: n.hops, IndexKeys: n.pruneLocked(n.ring.now())}
}

// Successors returns the names in the node's current successor list.
func (n *Node) Successors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.succs))
	for i, s := range n.succs {
		out[i] = s.name
	}
	return out
}

// SetChurnHook installs f as the node's churn notification: Stabilize
// invokes it (outside overlay locks) whenever a round detects a dead
// predecessor or any successor-list change — the events that shift key
// ownership or replication targets onto or off this node. The replication
// layer uses it to schedule replica promotion and re-replication.
func (n *Node) SetChurnHook(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.churn = f
}

// SetCopies installs the node's view of its own cached copies: copies
// reports whether the node holds a fresh copy of key, and until when. Publish
// announces a copy with that expiry, so the index keeps the entry exactly as
// long as the copy is fresh.
func (n *Node) SetCopies(copies func(key string) (time.Time, bool)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.copies = copies
}

// SetLoadGossip installs the node's load gossip hooks: local reports this
// node's current load score, observe is invoked (with overlay locks not
// held on the maintenance paths) whenever a maintenance RPC carries a
// peer's score. Scores piggyback on the existing ping/stabilize/notify
// traffic — load accounting costs zero additional messages.
func (n *Node) SetLoadGossip(local func() float64, observe func(peer string, load float64)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loadLocal = local
	n.loadObserve = observe
}

// localLoadArg renders this node's load score for piggybacking ("" when no
// provider is installed).
func (n *Node) localLoadArg() string {
	n.mu.Lock()
	local := n.loadLocal
	n.mu.Unlock()
	if local == nil {
		return ""
	}
	return loadview.FormatScore(local())
}

// observeLoad records a piggybacked peer score (no-op without an observer
// or for peers that do not gossip load).
func (n *Node) observeLoad(peer, arg string) {
	if peer == "" || peer == n.Name {
		return
	}
	score, ok := loadview.ParseScore(arg)
	if !ok {
		return
	}
	n.mu.Lock()
	observe := n.loadObserve
	n.mu.Unlock()
	if observe != nil {
		observe(peer, score)
	}
}

// Ping reports whether peer currently answers overlay pings through the
// transport. The replication repair path probes candidate owners with it
// before trusting routing-table entries that may be stale under churn.
// Pings carry load gossip both ways.
func (n *Node) Ping(peer string) bool {
	if peer == n.Name {
		return true
	}
	reply, err := n.ring.call(n.Name, peer, transport.Message{Type: msgPing, Key: n.localLoadArg()})
	if err != nil {
		return false
	}
	n.observeLoad(peer, reply.Key)
	return true
}

// OwnedRange returns the half-open ring interval (from, to] of key IDs this
// node believes it owns: everything between its known predecessor and
// itself. ok is false while the predecessor is unknown (mid-bootstrap or
// after its death), when the owned range cannot be bounded.
func (n *Node) OwnedRange() (from, to ID, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.name == "" {
		return 0, 0, false
	}
	return n.pred.id, n.ID, true
}

// InInterval reports whether id lies in the half-open ring interval
// (from, to], with wraparound. Exported for layers that partition keys by
// ring position (replication handoff streams key ranges between nodes).
func InInterval(id, from, to ID) bool { return between(id, from, to) }

// DropIndex discards the node's cooperative-cache index, simulating the
// loss of soft state when a node crashes.
func (n *Node) DropIndex() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.index = make(map[string][]Entry)
}

// Ring is the overlay membership authority: the set of member nodes plus
// the ground-truth key-to-node mapping (what a perfectly converged network
// would compute). Message traffic between nodes goes through Transport; the
// per-node routing tables are either kept exactly converged on every
// membership change (the default, matching the seed's instant-convergence
// model) or repaired incrementally through Stabilize/FixFingers rounds when
// ManualMaintenance is set. All methods are safe for concurrent use.
type Ring struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	// sorted node IDs for successor computation.
	sorted []ID
	byID   map[ID]*Node
	// Clock returns the current time; nil means time.Now.
	Clock func() time.Time
	// Transport carries all inter-node messages. NewRing installs the
	// direct-call transport; replace it (before the first Join) to run the
	// overlay over TCP or the fault-injecting simulated network.
	Transport transport.Transport
	// ManualMaintenance, when set, stops the ring from rebuilding every
	// node's routing tables on membership changes: a joining node is seeded
	// with correct tables, but existing nodes only learn about joins,
	// leaves, and failures through Stabilize/FixFingers rounds — the mode
	// the churn tests and the cluster harness exercise.
	ManualMaintenance bool
}

// NewRing returns an empty overlay using the in-process transport.
func NewRing() *Ring {
	return &Ring{
		nodes:     make(map[string]*Node),
		byID:      make(map[ID]*Node),
		Transport: transport.NewLocal(),
	}
}

func (r *Ring) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// Join adds a node with the given name and region to the overlay and
// returns it. Joining is idempotent: re-joining an existing name returns
// the existing node. This models the paper's low-administrative-overhead
// addition of nodes. The node's RPC handler is registered on the ring's
// transport; a caller that serves several subsystems under one name (see
// core.Node) re-registers a mux over it afterwards.
func (r *Ring) Join(name, region string) *Node {
	n := r.join(name, region, false)
	r.Transport.Register(name, n.ServeRPC)
	return n
}

// AddRemote records membership of a node served by another process (over
// the TCP transport): it participates in the key-to-node mapping and can be
// the target of calls, but no handler is registered locally.
func (r *Ring) AddRemote(name, region string) *Node {
	return r.join(name, region, true)
}

func (r *Ring) join(name, region string, remote bool) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[name]; ok {
		n.mu.Lock()
		n.alive = true
		n.mu.Unlock()
		return n
	}
	n := &Node{
		Name:   name,
		Region: region,
		ID:     HashID(name),
		ring:   r,
		index:  make(map[string][]Entry),
		alive:  true,
		remote: remote,
	}
	r.nodes[name] = n
	r.byID[n.ID] = n
	r.sorted = append(r.sorted, n.ID)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	if r.ManualMaintenance {
		r.seedRoutingLocked(n)
	} else {
		r.rebuildRoutingLocked()
	}
	return n
}

// Leave removes a node from the overlay. Index entries owned by the
// departed node are answered by its successor, which keeps a copy of each
// (see Publish).
func (r *Ring) Leave(name string) {
	r.mu.Lock()
	n, ok := r.nodes[name]
	if !ok {
		r.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.alive = false
	n.mu.Unlock()
	delete(r.nodes, name)
	delete(r.byID, n.ID)
	for i, id := range r.sorted {
		if id == n.ID {
			r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
			break
		}
	}
	if !r.ManualMaintenance {
		r.rebuildRoutingLocked()
	}
	r.mu.Unlock()
	r.Transport.Unregister(name)
}

// Size returns the number of live nodes.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the names of all live nodes, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for name := range r.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// successorLocked returns the node responsible for id per the membership
// ground truth: the first node whose ID is >= id, wrapping around the ring.
func (r *Ring) successorLocked(id ID) *Node {
	if len(r.sorted) == 0 {
		return nil
	}
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] >= id })
	if i == len(r.sorted) {
		i = 0
	}
	return r.byID[r.sorted[i]]
}

// Successor returns the node responsible for key per the membership ground
// truth (what routing converges to).
func (r *Ring) Successor(key string) *Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.successorLocked(HashID(key))
}

// ---------------------------------------------------------------------------
// Redirection (DNS substitute)
// ---------------------------------------------------------------------------

// Redirector chooses a nearby edge node for a client, standing in for
// Coral's DNS redirection of clients to nearby nodes. Proximity is
// region-based: a node in the client's region is preferred; otherwise the
// choice is round-robin over all live nodes for load balancing.
type Redirector struct {
	ring *Ring
	mu   sync.Mutex
	rr   int
}

// NewRedirector returns a redirector over ring.
func NewRedirector(ring *Ring) *Redirector { return &Redirector{ring: ring} }

// Pick returns the name of the edge node a client in region should use, or
// "" when the overlay is empty.
func (rd *Redirector) Pick(region string) string {
	rd.ring.mu.RLock()
	var inRegion []string
	var all []string
	for name, n := range rd.ring.nodes {
		all = append(all, name)
		if n.Region == region {
			inRegion = append(inRegion, name)
		}
	}
	rd.ring.mu.RUnlock()
	sort.Strings(inRegion)
	sort.Strings(all)
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if len(inRegion) > 0 {
		name := inRegion[rd.rr%len(inRegion)]
		rd.rr++
		return name
	}
	if len(all) == 0 {
		return ""
	}
	name := all[rd.rr%len(all)]
	rd.rr++
	return name
}
