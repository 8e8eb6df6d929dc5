package overlay

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"nakika/internal/transport"
)

// succListLen is the successor-list length: how many successors a node
// pings each round and Successors returns.
const succListLen = 4

// Overlay message types (the "ov." prefix is what transport.Mux routes on).
const (
	msgPublish = "ov.publish"
	msgLocate  = "ov.locate"
	msgPing    = "ov.ping"
)

// call sends an overlay RPC through the ring's transport.
func (r *Ring) call(from, to string, msg transport.Message) (transport.Message, error) {
	return r.Transport.Call(from, to, msg)
}

// ---------------------------------------------------------------------------
// The view
// ---------------------------------------------------------------------------

// walkLocked visits this node's view in ring order from position i of the
// sorted membership, clockwise for step 1 and counter-clockwise for step -1:
// every member the node does not suspect and avoid does not name, until
// visit returns false. Caller holds r.mu (read) and n.mu.
func (n *Node) walkLocked(i, step int, avoid map[string]bool, visit func(m *Node) bool) {
	s := n.ring.sorted
	for j := 0; j < len(s); j++ {
		m := n.ring.byID[s[((i+j*step)%len(s)+len(s))%len(s)]]
		if !n.suspects[m.Name] && !avoid[m.Name] && !visit(m) {
			return
		}
	}
}

// neighboursLocked derives this node's predecessor (nil when the node is
// alone in its view) and its first succListLen successors from the view.
// Caller holds r.mu (read) and n.mu.
func (n *Node) neighboursLocked() (pred *Node, succs []*Node) {
	pos := sort.Search(len(n.ring.sorted), func(i int) bool { return n.ring.sorted[i] >= n.ID })
	n.walkLocked(pos, 1, nil, func(m *Node) bool {
		if m != n {
			succs = append(succs, m)
		}
		return len(succs) < succListLen
	})
	n.walkLocked(pos-1, -1, nil, func(m *Node) bool {
		if m != n {
			pred = m
		}
		return pred == nil
	})
	return pred, succs
}

// Successors returns the names of the node's first succListLen successors
// in its view.
func (n *Node) Successors() []string {
	n.ring.mu.RLock()
	defer n.ring.mu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	_, succs := n.neighboursLocked()
	out := make([]string, len(succs))
	for i, s := range succs {
		out[i] = s.Name
	}
	return out
}

// OwnedRange returns the half-open ring interval (from, to] of key IDs this
// node owns in its view: everything between its predecessor and itself. ok
// is false while the node is alone in its view, when the owned range cannot
// be bounded.
func (n *Node) OwnedRange() (from, to ID, ok bool) {
	n.ring.mu.RLock()
	defer n.ring.mu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	pred, _ := n.neighboursLocked()
	if pred == nil {
		return 0, 0, false
	}
	return pred.ID, n.ID, true
}

// LookupName returns the owner of key in this node's view: the first member
// clockwise from the key's hash that the node does not suspect. It sends no
// message.
func (n *Node) LookupName(key string) (string, error) {
	return n.LookupNameAvoid(key, nil)
}

// LookupNameAvoid is LookupName that also passes over the members in avoid.
// The replication layer uses it for failover: when the owner of a key does
// not answer, looking the key up again with that owner in avoid yields the
// key's next live successor, the node that holds the next replica. avoid is
// not mutated.
func (n *Node) LookupNameAvoid(key string, avoid map[string]bool) (string, error) {
	id := HashID(key)
	r := n.ring
	r.mu.RLock()
	defer r.mu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(r.sorted) == 0 {
		return "", fmt.Errorf("overlay: empty ring")
	}
	n.lookups++
	owner := ""
	n.walkLocked(sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] >= id }), 1, avoid, func(m *Node) bool {
		owner = m.Name
		return false
	})
	if owner == "" {
		return "", fmt.Errorf("overlay: no owner for %q outside %d avoided members", key, len(avoid))
	}
	return owner, nil
}

// ViewDigest is an FNV-1a 32-bit hash of the ring's members and of the
// members this node suspects, each sorted: two nodes with equal digests
// agree on who owns every key.
func (n *Node) ViewDigest() uint32 {
	n.ring.mu.RLock()
	defer n.ring.mu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	var members, suspects []string
	for name := range n.ring.nodes {
		members = append(members, name)
		if n.suspects[name] {
			suspects = append(suspects, name)
		}
	}
	sort.Strings(members)
	sort.Strings(suspects)
	h := fnv.New32a()
	h.Write([]byte(strings.Join(members, "\n") + "\x00" + strings.Join(suspects, "\n")))
	return h.Sum32()
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

// window returns the members this node pings each round: its predecessor,
// its successors, and every member it suspects, each once.
func (n *Node) window() []string {
	n.ring.mu.RLock()
	defer n.ring.mu.RUnlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	pred, succs := n.neighboursLocked()
	var out []string
	if pred != nil {
		out = append(out, pred.Name)
	}
	for _, s := range succs {
		if !slices.Contains(out, s.Name) {
			out = append(out, s.Name)
		}
	}
	var suspects []string
	for name := range n.suspects {
		if _, member := n.ring.nodes[name]; member {
			suspects = append(suspects, name)
		} else {
			delete(n.suspects, name)
		}
	}
	sort.Strings(suspects)
	return append(out, suspects...)
}

// Stabilize runs one ping round over this node's window (see window): a
// failed ping suspects the member and a successful one clears it, and every
// ping carries load gossip both ways. A member that enters the window
// because another became suspected is pinged in the same round, so the
// round ends with every window member answered or suspected. When the
// round leaves the node's predecessor or successor list different from the
// last round's, the churn hook fires (see SetChurnHook), so the layer above
// can promote replicas and re-replicate. The round also drops the index
// slice's expired entries, and the keys left without one.
func (n *Node) Stabilize() {
	r := n.ring
	n.mu.Lock()
	n.pruneLocked(n.now())
	n.mu.Unlock()
	loadArg := n.localLoadArg()
	pinged := make(map[string]bool)
	for {
		var todo []string
		for _, p := range n.window() {
			if !pinged[p] {
				todo = append(todo, p)
			}
		}
		if len(todo) == 0 {
			break
		}
		for _, p := range todo {
			pinged[p] = true
			reply, err := r.call(n.Name, p, transport.Message{Type: msgPing, Key: loadArg})
			n.mu.Lock()
			if err != nil {
				n.suspects[p] = true
			} else {
				delete(n.suspects, p)
			}
			n.mu.Unlock()
			if err == nil {
				n.observeLoad(p, reply.Key)
			}
		}
	}
	r.mu.RLock()
	n.mu.Lock()
	pred, succs := n.neighboursLocked()
	r.mu.RUnlock()
	now := ""
	if pred != nil {
		now = pred.Name
	}
	for _, s := range succs {
		now += " " + s.Name
	}
	changed := now != n.last
	n.last = now
	hook := n.churn
	n.mu.Unlock()
	if changed && hook != nil {
		hook()
	}
}

// ---------------------------------------------------------------------------
// Cooperative-cache index operations (owner-side state, reached by RPC)
// ---------------------------------------------------------------------------

// Publish announces this node's copy of key in the cooperative index. The
// entry carries the copy's expiry, from the node's copies hook (SetCopies),
// and the index keeps it exactly that long; a key the node holds no fresh copy
// of is not announced. The entry is stored at the node responsible for the
// key (the DHT put), which keeps a copy of it at its first successor. The
// returned count is the overlay RPCs the call sent.
func (n *Node) Publish(key string) (int, error) {
	n.mu.Lock()
	copies := n.copies
	n.mu.Unlock()
	if copies == nil {
		return 0, nil
	}
	expires, ok := copies(key)
	if !ok {
		return 0, nil
	}
	return n.announce(key, expires)
}

// Unpublish removes this node's entry for key, for example once its copy is
// invalidated: an announcement whose expiry has passed.
func (n *Node) Unpublish(key string) { _, _ = n.announce(key, time.Unix(0, 0)) }

// announce sends this node's entry for key, fresh until expires, to the key's
// owner: an ov.publish whose one argument is the expiry in Unix nanoseconds.
func (n *Node) announce(key string, expires time.Time) (int, error) {
	owner, err := n.LookupName(key)
	if err != nil {
		return 0, err
	}
	msg := transport.Message{Type: msgPublish, Key: key, Args: []string{strconv.FormatInt(expires.UnixNano(), 10)}}
	if owner == n.Name {
		return n.applyPublish(n.Name, msg), nil
	}
	if _, err := n.ring.call(n.Name, owner, msg); err != nil {
		return 1, fmt.Errorf("overlay: publish to %s: %w", owner, err)
	}
	return 1, nil
}

// Locate returns the names of nodes believed to hold cached copies of key.
// Expired entries are filtered out.
func (n *Node) Locate(key string) []string {
	holders, _, _ := n.LocateErr(key)
	return holders
}

// LocateErr is Locate with the transport error exposed, so callers under
// fault injection can distinguish "no holders" from "index owner
// unreachable", and with the count of overlay RPCs the call sent. An owner
// that does not answer is asked again through its first live successor,
// which keeps a copy of its entries.
func (n *Node) LocateErr(key string) ([]string, int, error) {
	owner, err := n.LookupName(key)
	if err != nil {
		return nil, 0, err
	}
	holders, rpcs, err := n.locateAt(owner, key)
	if err != nil {
		next, lerr := n.LookupNameAvoid(key, map[string]bool{owner: true})
		if lerr != nil {
			return nil, rpcs, err
		}
		var more int
		holders, more, err = n.locateAt(next, key)
		rpcs += more
	}
	return holders, rpcs, err
}

// locateAt asks one node for the live holders of key in its index slice,
// and reports the RPCs that took.
func (n *Node) locateAt(node, key string) ([]string, int, error) {
	if node == n.Name {
		return n.applyLocate(key), 0, nil
	}
	reply, err := n.ring.call(n.Name, node, transport.Message{Type: msgLocate, Key: key})
	if err != nil {
		return nil, 1, fmt.Errorf("overlay: locate at %s: %w", node, err)
	}
	return reply.Args, 1, nil
}

// applyPublish records an announcement in this node's slice of the index:
// the holder's entry for the key now expires at the announced instant, and an
// instant that has passed removes it. An announcement from the holder itself
// is relayed to this node's first successor with the holder's name as a
// second argument; that copy is what Locate finds when this node is gone. An
// announcement without an expiry, as an older build sends, is not recorded.
// It returns the RPCs it sent: one for a relay, else none.
func (n *Node) applyPublish(from string, msg transport.Message) int {
	if len(msg.Args) == 0 {
		return 0
	}
	ns, err := strconv.ParseInt(msg.Args[0], 10, 64)
	if err != nil {
		return 0
	}
	holder, relay := from, ""
	if len(msg.Args) > 1 {
		holder = msg.Args[1]
	} else if succs := n.Successors(); len(succs) > 0 {
		relay = succs[0]
	}
	n.mu.Lock()
	entries := n.index[msg.Key]
	i := slices.IndexFunc(entries, func(e Entry) bool { return e.NodeName == holder })
	if i < 0 {
		entries = append(entries, Entry{NodeName: holder})
		i = len(entries) - 1
	}
	entries[i].Expires = time.Unix(0, ns)
	n.keepLocked(msg.Key, entries, n.now())
	n.mu.Unlock()
	if relay == "" {
		return 0
	}
	_, _ = n.ring.call(n.Name, relay, transport.Message{Type: msgPublish, Key: msg.Key, Args: []string{msg.Args[0], holder}})
	return 1
}

// applyLocate returns the live holders of key from this node's index slice.
func (n *Node) applyLocate(key string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, e := range n.keepLocked(key, n.index[key], n.now()) {
		out = append(out, e.NodeName)
	}
	return out
}

// keepLocked stores the entries of key that are still fresh at now, and
// forgets the key when none is, so the index holds live entries only. Caller
// holds n.mu.
func (n *Node) keepLocked(key string, entries []Entry, now time.Time) []Entry {
	kept := entries[:0]
	for _, e := range entries {
		if e.Expires.After(now) {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		delete(n.index, key)
	} else {
		n.index[key] = kept
	}
	return kept
}

// pruneLocked drops every expired entry, and every key left without one, from
// this node's index slice, and returns the number of keys that remain. Caller
// holds n.mu.
func (n *Node) pruneLocked(now time.Time) int {
	for key, entries := range n.index {
		n.keepLocked(key, entries, now)
	}
	return len(n.index)
}

// ---------------------------------------------------------------------------
// RPC handler
// ---------------------------------------------------------------------------

// ServeRPC handles one incoming overlay message; it is registered on the
// ring's transport at Join (possibly behind a mux).
func (n *Node) ServeRPC(from string, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case msgPublish:
		n.applyPublish(from, msg)
		return transport.Message{}, nil
	case msgLocate:
		return transport.Message{Args: n.applyLocate(msg.Key)}, nil
	case msgPing:
		n.observeLoad(from, msg.Key)
		return transport.Message{Key: n.localLoadArg()}, nil
	default:
		return transport.Message{}, fmt.Errorf("overlay: unknown message type %q", msg.Type)
	}
}
