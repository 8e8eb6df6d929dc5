package overlay

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"nakika/internal/transport"
)

// idBits is the routing identifier width: fingers[b] targets ID + 2^b.
const idBits = 64

// succListLen is the successor-list length: how many successive node
// failures routing survives under churn.
const succListLen = 4

// maxLookupHops bounds an iterative lookup; a converged ring resolves in
// O(log n) hops, so hitting this means routing state is badly broken.
const maxLookupHops = 96

// Overlay message types (the "ov." prefix is what transport.Mux routes on).
const (
	msgFindSuccessor = "ov.find_successor"
	msgPublish       = "ov.publish"
	msgLocate        = "ov.locate"
	msgStabilize     = "ov.stab"
	msgNotify        = "ov.notify"
	msgPing          = "ov.ping"
)

func fmtID(id ID) string { return strconv.FormatUint(uint64(id), 16) }

func parseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return ID(v), err
}

// skipList renders a skip set for the wire (sorted for determinism).
func skipList(skip map[string]bool) []string {
	if len(skip) == 0 {
		return nil
	}
	out := make([]string, 0, len(skip))
	for s := range skip {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// call sends an overlay RPC through the ring's transport.
func (r *Ring) call(from, to string, msg transport.Message) (transport.Message, error) {
	return r.Transport.Call(from, to, msg)
}

// ---------------------------------------------------------------------------
// Routing-table construction
// ---------------------------------------------------------------------------

// tablesFor computes the converged routing tables for position id given the
// current membership. Caller holds r.mu.
func (r *Ring) tablesFor(id ID) (pred ref, succs []ref, fingers []ref) {
	n := len(r.sorted)
	if n <= 1 {
		return ref{}, nil, make([]ref, idBits)
	}
	pos := 0
	for i, v := range r.sorted {
		if v == id {
			pos = i
			break
		}
	}
	k := succListLen
	if k > n-1 {
		k = n - 1
	}
	for j := 1; j <= k; j++ {
		s := r.byID[r.sorted[(pos+j)%n]]
		succs = append(succs, ref{name: s.Name, id: s.ID})
	}
	p := r.byID[r.sorted[(pos-1+n)%n]]
	pred = ref{name: p.Name, id: p.ID}
	fingers = make([]ref, idBits)
	for b := 0; b < idBits; b++ {
		target := id + ID(uint64(1)<<uint(b)) // ring arithmetic wraps on uint64
		f := r.successorLocked(target)
		fingers[b] = ref{name: f.Name, id: f.ID}
	}
	return pred, succs, fingers
}

// rebuildRoutingLocked recomputes every member's routing tables from the
// membership ground truth — the instant-convergence maintenance model.
// Caller holds r.mu.
func (r *Ring) rebuildRoutingLocked() {
	for _, id := range r.sorted {
		node := r.byID[id]
		pred, succs, fingers := r.tablesFor(id)
		node.mu.Lock()
		node.pred, node.succs, node.fingers = pred, succs, fingers
		node.mu.Unlock()
	}
}

// seedRoutingLocked gives a joining node correct initial tables (the "join
// server" bootstrap) without touching anyone else's state; under
// ManualMaintenance the rest of the ring learns about the newcomer through
// stabilization. Caller holds r.mu.
func (r *Ring) seedRoutingLocked(n *Node) {
	pred, succs, fingers := r.tablesFor(n.ID)
	n.mu.Lock()
	n.pred, n.succs, n.fingers = pred, succs, fingers
	n.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Iterative lookup
// ---------------------------------------------------------------------------

// decision is one routing step's outcome: either the final owner of the
// target, or the next node to ask.
type decision struct {
	owner string
	final bool
	next  string
}

// decide runs one Chord routing step against the node's own tables. Names
// in skip are known-unreachable: they are never proposed as the next hop,
// and when the nominal owner is skipped, ownership falls to the next live
// successor (a dead node's keys belong to its first live successor).
func (n *Node) decide(target ID, skip map[string]bool) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.succs) == 0 {
		// No successor state: alone on the ring (or still bootstrapping) —
		// claim the key rather than fail.
		return decision{owner: n.Name, final: true}
	}
	if between(target, n.ID, n.succs[0].id) {
		for _, s := range n.succs {
			if !skip[s.name] {
				return decision{owner: s.name, final: true}
			}
		}
		return decision{owner: n.succs[0].name, final: true}
	}
	if n.pred.name != "" && between(target, n.pred.id, n.ID) {
		// This node owns the target — unless the query skips it (a caller
		// asking "who owns this besides me/besides the dead owner"), in
		// which case ownership falls to the first non-skipped successor,
		// exactly as it would after this node's death.
		if !skip[n.Name] {
			return decision{owner: n.Name, final: true}
		}
		for _, s := range n.succs {
			if !skip[s.name] {
				return decision{owner: s.name, final: true}
			}
		}
		return decision{owner: n.succs[0].name, final: true}
	}
	if next := n.closestPrecedingLocked(target, skip); next != "" {
		return decision{next: next}
	}
	for _, s := range n.succs {
		if !skip[s.name] {
			return decision{owner: s.name, final: true}
		}
	}
	return decision{owner: n.succs[0].name, final: true}
}

// closestPrecedingLocked returns the name of the node from this node's
// tables (fingers, successors, predecessor) whose ID most closely precedes
// target, excluding names in skip. Caller holds n.mu.
func (n *Node) closestPrecedingLocked(target ID, skip map[string]bool) string {
	best := ref{}
	consider := func(c ref) {
		if c.name == "" || c.name == n.Name || skip[c.name] {
			return
		}
		// Candidate must lie between us and the target so every hop makes
		// progress toward the owner.
		if !between(c.id, n.ID, target) {
			return
		}
		if best.name == "" || between(best.id, n.ID, c.id) {
			best = c
		}
	}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	consider(n.pred)
	return best.name
}

// LookupName routes from this node to the node responsible for key,
// returning the owner's name and the number of remote routing hops taken.
// Unreachable hops are routed around using the rest of the node's tables.
func (n *Node) LookupName(key string) (string, int, error) {
	return n.lookupID(HashID(key), nil)
}

// LookupNameAvoid is LookupName with an initial set of names to treat as
// unreachable. The replication layer uses it for failover: when the nominal
// owner of a key is dead, looking the key up again with the dead node in
// avoid yields the key's first live successor — the node that now serves
// the key's replicas. avoid is not mutated.
func (n *Node) LookupNameAvoid(key string, avoid map[string]bool) (string, int, error) {
	return n.lookupID(HashID(key), avoid)
}

func (n *Node) lookupID(target ID, avoid map[string]bool) (string, int, error) {
	r := n.ring
	if r.Size() == 0 {
		return "", 0, fmt.Errorf("overlay: empty ring")
	}
	n.mu.Lock()
	n.lookups++
	n.mu.Unlock()
	hops := 0
	defer func() {
		n.mu.Lock()
		n.hops += int64(hops)
		n.mu.Unlock()
	}()

	skip := make(map[string]bool, len(avoid))
	for name := range avoid {
		skip[name] = true
	}
	dec := n.decide(target, skip)
	if dec.final {
		return dec.owner, hops, nil
	}
	cur := dec.next
	var lastErr error
	for hops < maxLookupHops {
		reply, err := r.call(n.Name, cur, transport.Message{Type: msgFindSuccessor, Key: fmtID(target), Args: skipList(skip)})
		hops++
		if err != nil {
			// Route around the dead/partitioned hop: restart the decision
			// from our own tables with the dead hop excluded (the skip set
			// travels with the query so later hops avoid it too).
			skip[cur] = true
			lastErr = err
			dec := n.decide(target, skip)
			if dec.final {
				return dec.owner, hops, nil
			}
			if dec.next == "" || skip[dec.next] {
				return "", hops, fmt.Errorf("overlay: lookup failed, no route to owner: %w", err)
			}
			cur = dec.next
			continue
		}
		if len(reply.Args) < 2 {
			return "", hops, fmt.Errorf("overlay: malformed find_successor reply")
		}
		name, kind := reply.Args[0], reply.Args[1]
		if kind == "final" {
			return name, hops, nil
		}
		if name == cur || skip[name] {
			// No progress: treat the hop's best guess as the owner.
			return name, hops, nil
		}
		cur = name
	}
	if lastErr != nil {
		return "", hops, fmt.Errorf("overlay: lookup did not converge: %w", lastErr)
	}
	return "", hops, fmt.Errorf("overlay: lookup did not converge after %d hops", hops)
}

// ---------------------------------------------------------------------------
// Cooperative-cache index operations (owner-side state, reached by RPC)
// ---------------------------------------------------------------------------

// Publish announces this node's copy of key in the cooperative index. The
// entry carries the copy's expiry, from the node's copies hook (SetCopies),
// and the index keeps it exactly that long; a key the node holds no fresh copy
// of is not announced. The entry is stored at the node responsible for the
// key (the DHT put), which keeps a copy of it at its first successor. The
// returned hop count covers the routing lookup.
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
	owner, hops, err := n.LookupName(key)
	if err != nil {
		return hops, err
	}
	msg := transport.Message{Type: msgPublish, Key: key, Args: []string{strconv.FormatInt(expires.UnixNano(), 10)}}
	if owner == n.Name {
		n.applyPublish(n.Name, msg)
		return hops, nil
	}
	if _, err := n.ring.call(n.Name, owner, msg); err != nil {
		return hops, fmt.Errorf("overlay: publish to %s: %w", owner, err)
	}
	return hops, nil
}

// Locate returns the names of nodes believed to hold cached copies of key,
// together with the routing hop count. Expired entries are filtered out.
func (n *Node) Locate(key string) ([]string, int) {
	holders, hops, _ := n.LocateErr(key)
	return holders, hops
}

// LocateErr is Locate with the routing/transport error exposed, so callers
// under fault injection can distinguish "no holders" from "index owner
// unreachable". An owner that does not answer is asked again through its
// first live successor, which keeps a copy of its entries.
func (n *Node) LocateErr(key string) ([]string, int, error) {
	owner, hops, err := n.LookupName(key)
	if err != nil {
		return nil, hops, err
	}
	holders, err := n.locateAt(owner, key)
	if err != nil {
		next, more, lerr := n.LookupNameAvoid(key, map[string]bool{owner: true})
		hops += more
		if lerr != nil || next == owner {
			return nil, hops, err
		}
		holders, err = n.locateAt(next, key)
	}
	return holders, hops, err
}

// locateAt asks one node for the live holders of key in its index slice.
func (n *Node) locateAt(node, key string) ([]string, error) {
	if node == n.Name {
		return n.applyLocate(key), nil
	}
	reply, err := n.ring.call(n.Name, node, transport.Message{Type: msgLocate, Key: key})
	if err != nil {
		return nil, fmt.Errorf("overlay: locate at %s: %w", node, err)
	}
	return reply.Args, nil
}

// applyPublish records an announcement in this node's slice of the index:
// the holder's entry for the key now expires at the announced instant, and an
// instant that has passed removes it. An announcement from the holder itself
// is relayed to this node's first successor with the holder's name as a
// second argument; that copy is what Locate finds when this node is gone. An
// announcement without an expiry, as an older build sends, is not recorded.
func (n *Node) applyPublish(from string, msg transport.Message) {
	if len(msg.Args) == 0 {
		return
	}
	ns, err := strconv.ParseInt(msg.Args[0], 10, 64)
	if err != nil {
		return
	}
	holder, relay := from, ""
	n.mu.Lock()
	if len(msg.Args) > 1 {
		holder = msg.Args[1]
	} else if len(n.succs) > 0 && n.succs[0].name != n.Name {
		relay = n.succs[0].name
	}
	entries := n.index[msg.Key]
	i := slices.IndexFunc(entries, func(e Entry) bool { return e.NodeName == holder })
	if i < 0 {
		entries = append(entries, Entry{NodeName: holder})
		i = len(entries) - 1
	}
	entries[i].Expires = time.Unix(0, ns)
	n.keepLocked(msg.Key, entries, n.ring.now())
	n.mu.Unlock()
	if relay != "" {
		_, _ = n.ring.call(n.Name, relay, transport.Message{Type: msgPublish, Key: msg.Key, Args: []string{msg.Args[0], holder}})
	}
}

// applyLocate returns the live holders of key from this node's index slice.
func (n *Node) applyLocate(key string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, e := range n.keepLocked(key, n.index[key], n.ring.now()) {
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
	case msgFindSuccessor:
		target, err := parseID(msg.Key)
		if err != nil {
			return transport.Message{}, fmt.Errorf("overlay: bad target id %q", msg.Key)
		}
		skip := make(map[string]bool, len(msg.Args))
		for _, s := range msg.Args {
			skip[s] = true
		}
		dec := n.decide(target, skip)
		if dec.final {
			return transport.Message{Args: []string{dec.owner, "final"}}, nil
		}
		return transport.Message{Args: []string{dec.next, "forward"}}, nil
	case msgPublish:
		n.applyPublish(from, msg)
		return transport.Message{}, nil
	case msgLocate:
		return transport.Message{Args: n.applyLocate(msg.Key)}, nil
	case msgStabilize:
		n.observeLoad(from, msg.Key)
		n.mu.Lock()
		args := []string{n.pred.name}
		for _, s := range n.succs {
			args = append(args, s.name)
		}
		n.mu.Unlock()
		return transport.Message{Key: n.localLoadArg(), Args: args}, nil
	case msgNotify:
		if len(msg.Args) > 0 {
			n.observeLoad(msg.Key, msg.Args[0])
		}
		cand := ref{name: msg.Key, id: HashID(msg.Key)}
		n.mu.Lock()
		if cand.name != n.Name && (n.pred.name == "" || between(cand.id, n.pred.id, n.ID)) {
			n.pred = cand
		}
		n.mu.Unlock()
		return transport.Message{}, nil
	case msgPing:
		n.observeLoad(from, msg.Key)
		return transport.Message{Key: n.localLoadArg()}, nil
	default:
		return transport.Message{}, fmt.Errorf("overlay: unknown message type %q", msg.Type)
	}
}

// ---------------------------------------------------------------------------
// Incremental maintenance (Stabilize / FixFingers)
// ---------------------------------------------------------------------------

// Stabilize runs one round of successor-list repair through the transport:
// dead successors are dropped, a closer live successor learned from the
// current one is adopted, the successor list is refreshed from the live
// successor's list, and the successor is notified of this node (updating
// its predecessor pointer). A dead predecessor is cleared so notify can
// replace it. When the round detects churn that changes this node's
// replication responsibilities — the predecessor died, or the successor
// list changed — the node's churn hook fires (see SetChurnHook), so the
// layer above can promote replicas and re-replicate. The round also drops
// the index slice's expired entries, and the keys left without one.
func (n *Node) Stabilize() {
	r := n.ring
	n.mu.Lock()
	n.pruneLocked(r.now())
	pred := n.pred
	succs := append([]ref(nil), n.succs...)
	oldList := fmt.Sprint(succs)
	n.mu.Unlock()
	churned := false
	defer func() {
		n.mu.Lock()
		newList := fmt.Sprint(n.succs)
		hook := n.churn
		n.mu.Unlock()
		// Any successor-list change matters, not just the head: a node K-1
		// places downstream replicates for this node, so its death or
		// arrival anywhere in the list shifts replication targets.
		if (churned || newList != oldList) && hook != nil {
			hook()
		}
	}()

	// Maintenance traffic doubles as load gossip: every ping/stabilize
	// below carries this node's load score and reports the peer's back.
	loadArg := n.localLoadArg()
	if pred.name != "" {
		if rep, err := r.call(n.Name, pred.name, transport.Message{Type: msgPing, Key: loadArg}); err != nil {
			n.mu.Lock()
			if n.pred == pred {
				n.pred = ref{}
				churned = true
			}
			n.mu.Unlock()
		} else {
			n.observeLoad(pred.name, rep.Key)
		}
	}

	var live ref
	var reply transport.Message
	for len(succs) > 0 {
		s := succs[0]
		rep, err := r.call(n.Name, s.name, transport.Message{Type: msgStabilize, Key: loadArg})
		if err != nil {
			succs = succs[1:] // successor-list repair: skip the dead head
			continue
		}
		n.observeLoad(s.name, rep.Key)
		live, reply = s, rep
		break
	}
	if live.name == "" {
		// Every known successor is gone. Fall back to the first live finger
		// (fingers cover the whole ring, so the lowest live one is a
		// successor over-estimate that the adoption loop below walks back),
		// or to the predecessor so a two-node ring can re-form.
		n.mu.Lock()
		fingers := append([]ref(nil), n.fingers...)
		n.mu.Unlock()
		for _, f := range fingers {
			if f.name == "" || f.name == n.Name {
				continue
			}
			if rep, err := r.call(n.Name, f.name, transport.Message{Type: msgStabilize, Key: loadArg}); err == nil {
				n.observeLoad(f.name, rep.Key)
				live, reply = f, rep
				break
			}
		}
		if live.name == "" {
			// Nothing reachable anywhere. If the predecessor is still known
			// (its ping succeeded above), fall back to it so a two-node ring
			// can re-form; otherwise the node is fully isolated — clear the
			// successor list so it stops addressing dead peers and serves
			// alone until something reachable reappears (fingers are left in
			// place as rejoin candidates for later rounds).
			n.mu.Lock()
			if n.pred.name != "" && n.pred.name != n.Name {
				n.succs = []ref{n.pred}
			} else {
				n.succs = nil
			}
			n.mu.Unlock()
			return
		}
	}

	// Classic Chord stabilization, run to a fixpoint: while our successor's
	// predecessor sits between us and it, that node is a closer successor —
	// adopt it if reachable.
	for i := 0; i < maxLookupHops; i++ {
		sp := reply.Args[0]
		if sp == "" || sp == n.Name {
			break
		}
		spRef := ref{name: sp, id: HashID(sp)}
		if !between(spRef.id, n.ID, live.id) || spRef.id == live.id {
			break
		}
		rep, err := r.call(n.Name, sp, transport.Message{Type: msgStabilize, Key: loadArg})
		if err != nil {
			break
		}
		n.observeLoad(sp, rep.Key)
		live, reply = spRef, rep
	}

	// Refresh the successor list: the live successor followed by its list.
	newSuccs := []ref{live}
	for _, name := range reply.Args[1:] {
		if name == "" || name == n.Name || name == live.name {
			continue
		}
		newSuccs = append(newSuccs, ref{name: name, id: HashID(name)})
		if len(newSuccs) >= succListLen {
			break
		}
	}
	n.mu.Lock()
	n.succs = newSuccs
	n.mu.Unlock()
	_, _ = r.call(n.Name, live.name, transport.Message{Type: msgNotify, Key: n.Name, Args: []string{loadArg}})
}

// FixFingers refreshes every finger by routing for its target; entries
// whose lookups fail are left for the next round. A node with no
// successor state skips the refresh entirely: its lookups resolve
// everything to itself (the bootstrap rule), and overwriting the finger
// table with self-entries would destroy the only routes it has left for
// rejoining the ring.
func (n *Node) FixFingers() {
	n.mu.Lock()
	isolated := len(n.succs) == 0
	n.mu.Unlock()
	if isolated {
		return
	}
	for b := 0; b < idBits; b++ {
		target := n.ID + ID(uint64(1)<<uint(b))
		owner, _, err := n.lookupID(target, nil)
		if err != nil || owner == "" {
			continue
		}
		n.mu.Lock()
		if n.fingers == nil {
			n.fingers = make([]ref, idBits)
		}
		n.fingers[b] = ref{name: owner, id: HashID(owner)}
		n.mu.Unlock()
	}
}
