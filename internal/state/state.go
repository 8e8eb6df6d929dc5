// Package state implements Na Kika's hard state support (Section 3.3):
// per-site edge-side access logs and replicated application state.
//
// The paper keeps hard state as a local store plus a messaging service.
// Here the store is Store (a store.Log with per-site partitioning and
// storage quotas), holding every value as a versioned record (Rec) that
// converges by last-writer-wins however often and in whatever order it is
// applied; the messaging is internal/core's successor-list replication,
// which carries those records between nodes over the transport. A node
// without peers owns every key and writes the same records. AccessLog
// batches log entries and posts them to the URLs site scripts name.
package state

import (
	"strconv"
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
// where every acknowledged write is on disk before it returns and a crashed
// node recovers its hard state exactly by replay, or on a private
// in-memory filesystem, where the same writes die with the process.
type Store struct {
	// kv is swapped only at Recover; every hard-state read loads it.
	kv atomic.Pointer[store.Log]
}

// NewStoreBacked returns a store over an already-opened log (which enforces
// its own quota).
func NewStoreBacked(kv *store.Log) *Store {
	s := &Store{}
	s.kv.Store(kv)
	return s
}

// Backend returns the current log.
func (s *Store) Backend() *store.Log { return s.kv.Load() }

// SetBackend swaps the log in place, so a node recovering from a crash can
// reopen its log and swap it in under everything that holds the Store.
func (s *Store) SetBackend(kv *store.Log) { s.kv.Store(kv) }

// Get returns the value for key in site's partition.
func (s *Store) Get(site, key string) (string, bool) {
	return s.Backend().Get(site, key)
}

// Keys returns the keys in site's partition, sorted.
func (s *Store) Keys(site string) []string {
	return s.Backend().Keys(site)
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
