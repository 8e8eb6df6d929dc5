// Package state implements Na Kika's hard state support (Section 3.3):
// per-site edge-side access logs and replicated application state.
//
// Replication follows Gao et al.'s distributed-object approach as adopted by
// the paper: a local store plus a reliable messaging service, with the
// actual replication strategy implemented by regular scripts. The Go layer
// provides the two substrates — Store (local storage with per-site
// partitioning and storage quotas) and Bus (a reliable, in-order message
// bus connecting the nodes' update channels) — plus the AccessLog that
// batches log entries and posts them to the URLs site scripts name.
package state

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/store"
)

// DefaultQuota is the per-site byte quota on a node's hard state: the
// paper's resource constraint on persistent storage.
const DefaultQuota = 16 << 20

// Store is a per-node key-value store partitioned by site, with per-site
// byte quotas enforcing the paper's resource constraints on persistent
// storage. Storage itself is one store.Log: on the node's data directory,
// where every acknowledged put is on disk before Put returns and a crashed
// node recovers its hard state exactly by replay, or on a private
// in-memory filesystem, where the same writes die with the process.
type Store struct {
	mu sync.RWMutex
	kv *store.Log
}

// NewStoreBacked returns a store over an already-opened log (which enforces
// its own quota).
func NewStoreBacked(kv *store.Log) *Store {
	return &Store{kv: kv}
}

// Backend returns the current log.
func (s *Store) Backend() *store.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.kv
}

// SetBackend swaps the log in place. Replicas hold the Store, not the log,
// so a node recovering from a crash can reopen its log and swap it in
// without rewiring subscribers.
func (s *Store) SetBackend(kv *store.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kv = kv
}

// Get returns the value for key in site's partition.
func (s *Store) Get(site, key string) (string, bool) {
	return s.Backend().Get(site, key)
}

// Put stores value under key in site's partition, enforcing the quota; it
// returns once the write is durable.
func (s *Store) Put(site, key, value string) error {
	return s.Backend().Put(site, key, value)
}

// Delete removes key from site's partition; it returns once the removal
// is durable.
func (s *Store) Delete(site, key string) error {
	return s.Backend().Delete(site, key)
}

// Keys returns the keys in site's partition, sorted.
func (s *Store) Keys(site string) []string {
	return s.Backend().Keys(site)
}

// ---------------------------------------------------------------------------
// Reliable message bus
// ---------------------------------------------------------------------------

// Message is a replication update published by a node for a site.
type Message struct {
	Site    string
	Origin  string // originating node name
	Payload string
	Seq     int64
}

// Handler consumes replication messages delivered to a subscriber.
type Handler func(msg Message)

// Bus is an in-process reliable messaging service (the JORAM substitute):
// messages published for a site are delivered synchronously, in publication
// order, to every subscribed node except the originator.
type Bus struct {
	mu          sync.Mutex
	subscribers map[string]map[string]Handler // site -> node name -> handler
	seq         int64
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subscribers: make(map[string]map[string]Handler)}
}

// Subscribe registers node's handler for site's replication messages.
func (b *Bus) Subscribe(site, node string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subscribers[site] == nil {
		b.subscribers[site] = make(map[string]Handler)
	}
	b.subscribers[site][node] = h
}

// Publish sends a replication message from origin for site. It returns the
// message's sequence number.
func (b *Bus) Publish(site, origin, payload string) int64 {
	b.mu.Lock()
	b.seq++
	msg := Message{Site: site, Origin: origin, Payload: payload, Seq: b.seq}
	b.mu.Unlock()
	b.deliver(msg)
	return msg.Seq
}

// deliver invokes every subscriber for the message's site except the
// originator.
func (b *Bus) deliver(msg Message) {
	b.mu.Lock()
	handlers := make(map[string]Handler)
	for node, h := range b.subscribers[msg.Site] {
		if node != msg.Origin {
			handlers[node] = h
		}
	}
	b.mu.Unlock()
	// Deterministic delivery order.
	names := make([]string, 0, len(handlers))
	for n := range handlers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		handlers[n](msg)
	}
}

// ---------------------------------------------------------------------------
// Edge-side access logs
// ---------------------------------------------------------------------------

// LogEntry is one access recorded on behalf of a site.
type LogEntry struct {
	Time    time.Time
	Message string
}

// Poster delivers a batch of log lines to a site's post URL; the node wires
// its upstream fetcher in here.
type Poster func(site, postURL string, lines []string) error

// AccessLog collects per-site log entries and periodically posts them to the
// URL each site's script named (Section 3.3: "Periodically, each Na Kika node
// scans its log, collects all entries for each specific site, and posts those
// portions of the log to the specified URLs"). Only a site whose script named
// a URL has a buffer: an entry for any other site could never be posted, so
// it is not kept, and a node sent many distinct Host headers holds nothing
// for them. Buffers are locked per site: every request to a posting site
// appends a line, so a single global lock here would serialize the request
// path. Each holds at most maxPendingLog entries: a site whose URL is down
// loses its oldest entries instead of growing the node's heap with every
// request it is served.
type AccessLog struct {
	clock   func() time.Time
	mu      sync.RWMutex // guards the sites map, not the buffers
	sites   map[string]*siteLog
	dropped atomic.Int64
}

// maxPendingLog bounds one site's unposted entries (about 1 MiB of access
// lines). A power of two times 16, so the doubling buffer lands on it.
const maxPendingLog = 8192

// siteLog is one posting site's independently locked entry buffer: a ring
// that doubles until it holds maxPendingLog entries and then overwrites the
// oldest.
type siteLog struct {
	// flushing is held through a flush of the site, post included, so two
	// flushes at once post its entries once: the second waits for the first
	// and posts what that one left.
	flushing sync.Mutex
	mu       sync.Mutex
	url      string
	ring     []LogEntry
	start    int // index in ring of the oldest entry
	count    int
	// removed counts the entries ever taken off the front, posted or
	// overwritten: the sequence number of the oldest entry still held, by
	// which Flush finds what is left of a batch it posted.
	removed uint64
}

// push appends e, reporting whether the oldest entry was dropped for it.
func (s *siteLog) push(e LogEntry) (dropped bool) {
	if s.count == len(s.ring) {
		if s.count == maxPendingLog {
			s.pop(1)
			dropped = true
		} else {
			s.ring = s.ordered(max(16, 2*s.count))
			s.start = 0
		}
	}
	s.ring[(s.start+s.count)%len(s.ring)] = e
	s.count++
	return dropped
}

// pop removes the k oldest entries.
func (s *siteLog) pop(k int) {
	s.start = (s.start + k) % len(s.ring)
	s.count -= k
	s.removed += uint64(k)
}

// ordered copies the held entries, oldest first, into a new slice of the
// given length (at least count).
func (s *siteLog) ordered(length int) []LogEntry {
	out := make([]LogEntry, length)
	k := copy(out, s.ring[s.start:min(s.start+s.count, len(s.ring))])
	copy(out[k:], s.ring[:s.count-k])
	return out
}

// NewAccessLog returns an empty access log that stamps entries with clock.
func NewAccessLog(clock func() time.Time) *AccessLog {
	return &AccessLog{clock: clock, sites: make(map[string]*siteLog)}
}

// SetPostURL records the URL to which site's log entries are posted, giving
// the site a buffer; a site script names it through Log.postTo.
func (l *AccessLog) SetPostURL(site, url string) {
	l.mu.Lock()
	s, ok := l.sites[site]
	if !ok {
		s = &siteLog{}
		l.sites[site] = s
	}
	l.mu.Unlock()
	s.mu.Lock()
	s.url = url
	s.mu.Unlock()
}

// Posting reports whether site's script named a post URL: the one case in
// which Append keeps an entry, so a caller can skip formatting one otherwise.
func (l *AccessLog) Posting(site string) bool { return l.buffer(site) != nil }

func (l *AccessLog) buffer(site string) *siteLog {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sites[site]
}

// Append records a log entry for a posting site, dropping the site's oldest
// entry when its buffer is full. For any other site it does nothing.
func (l *AccessLog) Append(site, message string) {
	s := l.buffer(site)
	if s == nil {
		return
	}
	s.mu.Lock()
	dropped := s.push(LogEntry{Time: l.clock(), Message: message})
	s.mu.Unlock()
	if dropped {
		l.dropped.Add(1)
	}
}

// Dropped returns the total number of entries overwritten unposted because
// their site's buffer was full.
func (l *AccessLog) Dropped() int64 { return l.dropped.Load() }

// Flush posts every posting site's accumulated entries to its URL using post.
// Entries are retained on post failure so the next flush retries them. A
// site's flush is single-flight: a Flush that finds another posting the site
// waits for it, so no entry is posted twice.
func (l *AccessLog) Flush(post Poster) error {
	l.mu.RLock()
	sites := make(map[string]*siteLog, len(l.sites))
	for site, buf := range l.sites {
		sites[site] = buf
	}
	l.mu.RUnlock()

	var firstErr error
	for site, buf := range sites {
		if err := buf.flush(site, post); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flush posts the site's entries once no other flush of it is in flight.
func (s *siteLog) flush(site string, post Poster) error {
	s.flushing.Lock()
	defer s.flushing.Unlock()
	s.mu.Lock()
	url := s.url
	entries := s.ordered(s.count)
	end := s.removed + uint64(len(entries))
	s.mu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	lines := make([]string, len(entries))
	for j, e := range entries {
		lines[j] = e.Time.UTC().Format(time.RFC3339) + " " + e.Message
	}
	if err := post(site, url, lines); err != nil {
		return err
	}
	s.mu.Lock()
	// Drop exactly the entries posted (less any the buffer overwrote
	// meanwhile); new entries appended since the snapshot stay queued.
	if end > s.removed {
		s.pop(int(end - s.removed))
	}
	s.mu.Unlock()
	return nil
}

// FormatAccess renders the standard access-log line the node writes for each
// proxied request. It is on the per-request hot path, so the line is
// assembled append-style into one right-sized buffer instead of through fmt.
func FormatAccess(clientIP, method, url string, status, bytes int, elapsed time.Duration) string {
	d := elapsed.Round(time.Millisecond).String()
	b := make([]byte, 0, len(clientIP)+len(method)+len(url)+len(d)+26)
	b = append(b, clientIP...)
	b = append(b, ' ')
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, url...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(bytes), 10)
	b = append(b, ' ')
	b = append(b, d...)
	return string(b)
}

// ---------------------------------------------------------------------------
// Replicated state: store + bus + script-defined strategy
// ---------------------------------------------------------------------------

// Replica ties a node's local store to the bus for one site, implementing
// the default optimistic replication strategy (propagate every update to all
// nodes, last-writer-wins). Sites that need different semantics implement
// them in their scripts via the State vocabulary's propagate and the
// onMessage hook; Replica is the building block those scripts run on.
type Replica struct {
	Site  string
	Node  string
	Store *Store
	Bus   *Bus
	// OnMessage, when non-nil, is invoked for every remote update after it
	// has been applied locally; the node uses it to hand the message to the
	// site's script.
	OnMessage func(Message)
}

// Attach subscribes the replica to the bus.
func (r *Replica) Attach() {
	r.Bus.Subscribe(r.Site, r.Node, r.apply)
}

// Put writes locally and propagates the update to other replicas.
func (r *Replica) Put(key, value string) error {
	if err := r.Store.Put(r.Site, key, value); err != nil {
		return err
	}
	r.Bus.Publish(r.Site, r.Node, encodeUpdate("put", key, value))
	return nil
}

// Delete removes locally and propagates the removal.
func (r *Replica) Delete(key string) error {
	if err := r.Store.Delete(r.Site, key); err != nil {
		return err
	}
	r.Bus.Publish(r.Site, r.Node, encodeUpdate("del", key, ""))
	return nil
}

// Get reads from the local replica.
func (r *Replica) Get(key string) (string, bool) {
	return r.Store.Get(r.Site, key)
}

// apply handles a remote update.
func (r *Replica) apply(msg Message) {
	op, key, value, ok := decodeUpdate(msg.Payload)
	if ok {
		switch op {
		case "put":
			// Quota violations on replicated writes are dropped; the
			// originating replica already accepted the write and the local
			// node simply cannot hold it.
			_ = r.Store.Put(r.Site, key, value)
		case "del":
			_ = r.Store.Delete(r.Site, key)
		}
	}
	if r.OnMessage != nil {
		r.OnMessage(msg)
	}
}

// encodeUpdate and decodeUpdate use a trivial length-prefixed encoding so
// keys and values may contain any characters.
func encodeUpdate(op, key, value string) string {
	return fmt.Sprintf("%s %d %d %s%s", op, len(key), len(value), key, value)
}

func decodeUpdate(s string) (op, key, value string, ok bool) {
	parts := strings.SplitN(s, " ", 4)
	if len(parts) != 4 {
		return "", "", "", false
	}
	var klen, vlen int
	if _, err := fmt.Sscanf(parts[1]+" "+parts[2], "%d %d", &klen, &vlen); err != nil {
		return "", "", "", false
	}
	rest := parts[3]
	if len(rest) < klen+vlen {
		return "", "", "", false
	}
	return parts[0], rest[:klen], rest[klen : klen+vlen], true
}
