// Package overlay implements the structured overlay network Na Kika uses to
// coordinate local caches and enable incremental deployment (Section 3.4).
//
// The paper treats the overlay largely as a black box provided by an
// existing DHT (Coral in the prototype). This reproduction provides a
// consistent-hashing overlay with one-hop ownership (Gupta, Liskov &
// Rodrigues, "One Hop Lookups for Peer-to-Peer Overlays", HotOS 2003):
// node and key identifiers are the first 64 bits of their SHA-1 hashes,
// every process holds the ring's whole membership, and a node's view is
// that membership minus the members it suspects. The owner of a key is the
// first member of the view clockwise from the key's hash, found without a
// message. The key-to-node mapping is used for two purposes:
//
//   - a cooperative cache index mapping resource cache keys to the nodes
//     that hold cached copies, so one cached copy anywhere in the network is
//     sufficient to avoid an origin access, and
//   - a redirector that stands in for Coral's DNS redirection, returning a
//     nearby node for a client region.
//
// Membership changes only through Join, Leave and AddRemote, and every view
// sees a change at once. Suspicion comes from the pings of Stabilize, each
// node's maintenance round over its predecessor, its successors and the
// members it suspects. All inter-node protocol traffic — index
// publish/locate and those pings — flows through a transport.Transport. The default transport is direct in-process calls
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

// ID is a point on the ring: the first 64 bits of a SHA-1 hash (collision
// probability is irrelevant at the scales involved).
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

// Node is a member of the overlay.
type Node struct {
	Name   string
	Region string
	ID     ID

	mu    sync.Mutex
	ring  *Ring
	index map[string][]Entry // keys this node is responsible for
	// suspects are the members whose last ping from this node failed; the
	// node's view is the ring's membership without them.
	suspects map[string]bool
	// last is the predecessor and successor list the previous Stabilize
	// left, so the next one can tell whether they changed.
	last    string
	lookups int64
	// churn, when non-nil, is invoked (outside locks) by Stabilize when the
	// round changed this node's predecessor or successor list.
	churn func()
	// copies reports whether the node holds a fresh copy of a key and until
	// when (see SetCopies); Publish announces nothing without it. clock is
	// the time the node judges its index slice's entries by; nil means
	// time.Now.
	copies func(key string) (time.Time, bool)
	clock  func() time.Time
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
	IndexKeys int
}

// Stats returns a snapshot of the node's counters; the node's metrics
// registry exports them.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStats{Lookups: n.lookups, IndexKeys: n.pruneLocked(n.now())}
}

// SetChurnHook installs f as the node's churn notification: Stabilize
// invokes it (outside overlay locks) whenever a round leaves the node's
// predecessor or successor list changed — the events that shift key
// ownership or replication targets onto or off this node. The replication
// layer uses it to schedule replica promotion and re-replication.
func (n *Node) SetChurnHook(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.churn = f
}

// SetCopies installs the node's view of its own cached copies, and the
// clock it judges them by: copies reports whether the node holds a fresh copy
// of key, and until when. Publish announces a copy with that expiry, and the
// index slice this node holds drops an entry once clock passes it, so the
// index keeps the entry exactly as long as the copy is fresh.
func (n *Node) SetCopies(copies func(key string) (time.Time, bool), clock func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.copies, n.clock = copies, clock
}

// now reads the node's clock (see SetCopies).
func (n *Node) now() time.Time {
	if n.clock != nil {
		return n.clock()
	}
	return time.Now()
}

// SetLoadGossip installs the node's load gossip hooks: local reports this
// node's current load score, observe is invoked (with overlay locks not
// held on the maintenance paths) whenever a maintenance RPC carries a
// peer's score. Scores piggyback on the existing ping traffic — load
// accounting costs zero additional messages.
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
// before trusting a view that may not yet suspect a dead member. Pings
// carry load gossip both ways; Ping changes no view.
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

// InInterval reports whether id lies in the half-open ring interval
// (from, to], with wraparound. Exported for layers that partition keys by
// ring position (replication handoff streams key ranges between nodes).
func InInterval(id, from, to ID) bool { return between(id, from, to) }

// Ring is the overlay membership authority: the set of member nodes plus
// the ground-truth key-to-node mapping (what every view computes while it
// suspects no one). Message traffic between nodes goes through Transport.
// All methods are safe for concurrent use.
type Ring struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	// sorted node IDs for successor computation.
	sorted []ID
	byID   map[ID]*Node
	// Transport carries all inter-node messages. NewRing installs the
	// direct-call transport; replace it (before the first Join) to run the
	// overlay over TCP or the fault-injecting simulated network.
	Transport transport.Transport
}

// NewRing returns an empty overlay using the in-process transport.
func NewRing() *Ring {
	return &Ring{
		nodes:     make(map[string]*Node),
		byID:      make(map[ID]*Node),
		Transport: transport.NewLocal(),
	}
}

// Join adds a node with the given name and region to the overlay and
// returns it. Joining is idempotent: re-joining an existing name returns
// the existing node. This models the paper's low-administrative-overhead
// addition of nodes. The node's RPC handler is registered on the ring's
// transport; a caller that serves several subsystems under one name (see
// core.Node) re-registers a mux over it afterwards.
func (r *Ring) Join(name, region string) *Node {
	n := r.AddRemote(name, region)
	r.Transport.Register(name, n.ServeRPC)
	return n
}

// AddRemote records membership of a node served by another process (over
// the TCP transport): it participates in the key-to-node mapping and can be
// the target of calls, but no handler is registered locally.
func (r *Ring) AddRemote(name, region string) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[name]; ok {
		return n
	}
	n := &Node{
		Name:     name,
		Region:   region,
		ID:       HashID(name),
		ring:     r,
		index:    make(map[string][]Entry),
		suspects: make(map[string]bool),
	}
	r.nodes[name] = n
	r.byID[n.ID] = n
	r.sorted = append(r.sorted, n.ID)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
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
	delete(r.nodes, name)
	delete(r.byID, n.ID)
	for i, id := range r.sorted {
		if id == n.ID {
			r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	r.Transport.Unregister(name)
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
// truth (what a view that suspects no one computes).
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
