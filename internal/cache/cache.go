// Package cache implements the edge node's expiration-based caches.
//
// Two caches from the paper's prototype are provided, beside the
// single-flight Group (flight.go) that their users coalesce misses through:
//
//   - Cache: the HTTP proxy cache holding complete responses keyed by
//     request cache key, honouring the web's expiration-based consistency
//     model (Section 3.3) with a configurable default TTL and LRU eviction.
//     The cache is sharded by key hash so concurrent pipelines do not
//     serialize on one lock. An entry holds a response in the form the
//     binary codec writes it (httpmsg.Stored): the header as AppendHeader's
//     bytes in one string, the body, and the scalar fields, on an intrusive
//     LRU list; a hit decodes the header into a map of its own, and the
//     disk tier (Disk) writes and reads the same bytes. A store keeps the
//     reply's body array when the reply owns one no larger than the body
//     needs (an origin reply read at its declared length), and copies the
//     body once otherwise; the reply and every hit then share the stored
//     bytes until a script touches them (httpmsg.Response.Materialize). It
//     owns the freshness decision (Expiry) for every tier of the node, the
//     large-object tier included.
//   - Memo: a small in-memory memoization cache used for parsed decision
//     trees and reusable scripting contexts (the 4 microsecond / 3
//     microsecond retrievals reported in Section 5.1). The pipeline's
//     negative caching of missing nakika.js resources is a Memo.
package cache

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Expired   int64
	Entries   int
	Bytes     int64
	// Demotions counts fresh entries handed to the disk tier on eviction;
	// DiskHits counts misses served by promoting a disk entry. Disk is the
	// tier's own counter snapshot (zero without an attached tier).
	Demotions int64
	DiskHits  int64
	Disk      DiskStats
}

// Config controls cache behaviour.
type Config struct {
	// MaxEntries bounds the number of cached responses; zero means 4096.
	MaxEntries int
	// MaxBytes bounds total cached body bytes; zero means 256 MiB.
	MaxBytes int64
	// DefaultTTL is used when a response carries no freshness information;
	// zero means 60 seconds.
	DefaultTTL time.Duration
	// Shards is the desired number of lock shards, rounded down to a power
	// of two; zero means 16. The effective count is reduced so every shard
	// keeps a useful slice of the entry and byte budgets (small caches
	// collapse to one shard and keep exact global LRU order).
	Shards int
	// L2, when non-nil, attaches a disk cache tier: entries evicted from
	// the memory LRU while still fresh demote to disk, and memory misses
	// consult the disk index before reporting a miss, so a restarted node
	// rewarms from disk instead of refetching from the origin.
	L2 *Disk
	// Clock returns the current time; nil means time.Now. A node passes its
	// own clock (core.Config.Clock); tests inject virtual clocks here.
	Clock func() time.Time
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxEntries <= 0 {
		out.MaxEntries = 4096
	}
	if out.MaxBytes <= 0 {
		out.MaxBytes = 256 << 20
	}
	if out.DefaultTTL <= 0 {
		out.DefaultTTL = 60 * time.Second
	}
	if out.Shards <= 0 {
		out.Shards = defaultShards
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	return out
}

const (
	defaultShards = 16
	// minEntriesPerShard and minBytesPerShard keep sharding from fragmenting
	// small budgets: a shard whose LRU holds a handful of entries evicts
	// almost randomly with respect to the global access order.
	minEntriesPerShard = 32
	minBytesPerShard   = 1 << 20
)

// shardCount picks the effective power-of-two shard count for a config.
func shardCount(cfg Config) int {
	n := 1
	for n*2 <= cfg.Shards {
		n *= 2
	}
	for n > 1 && (cfg.MaxEntries/n < minEntriesPerShard || cfg.MaxBytes/int64(n) < minBytesPerShard) {
		n /= 2
	}
	return n
}

// entry is one cached response, in the form the codec writes it, on its
// shard's LRU list. Only its list links change once it is stored, under the
// shard lock: a hit builds its response from the rest outside the lock, and
// a renewal swaps in a new entry.
type entry struct {
	httpmsg.Stored
	key        string
	expires    time.Time
	prev, next *entry
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	lru        entry // sentinel of the LRU ring: lru.next is the most recently used entry
	bytes      int64
	maxEntries int
	maxBytes   int64
}

// Cache is a concurrency-safe expiration-based response cache with LRU
// eviction, sharded by key hash. Counters are atomics so the hot path never
// takes a lock beyond its own shard, and a hit decodes its response outside
// the shard lock.
type Cache struct {
	cfg    Config
	shards []*shard
	mask   uint64
	l2     atomic.Pointer[Disk]

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
	expired   atomic.Int64
	demotions atomic.Int64
	diskHits  atomic.Int64
}

// New returns a cache with the given configuration.
func New(cfg Config) *Cache {
	c := cfg.withDefaults()
	n := shardCount(c)
	cache := &Cache{cfg: c, shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range cache.shards {
		cache.shards[i] = &shard{
			entries:    make(map[string]*entry),
			maxEntries: c.MaxEntries / n,
			maxBytes:   c.MaxBytes / int64(n),
		}
		cache.shards[i].clearLocked()
	}
	if c.L2 != nil {
		cache.l2.Store(c.L2)
	}
	return cache
}

// L2 returns the attached disk tier, or nil.
func (c *Cache) L2() *Disk { return c.l2.Load() }

// SetL2 attaches (or with nil detaches) the disk tier at runtime; the
// node swaps tiers across simulated crash/restart cycles.
func (c *Cache) SetL2(d *Disk) { c.l2.Store(d) }

// shard returns the shard owning key (FNV-1a over the key).
func (c *Cache) shard(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h&c.mask]
}

// Expiry returns the instant until which a shared cache may serve a response
// that carried header h and was obtained at fetched: the header's own
// freshness information, else the default TTL. A response whose headers say
// it is stale already (max-age=0, an Expires that has passed) expires at
// fetched, which no tier serves or stores. Put and Refresh file entries under
// it, and the large-object tier judges its manifests by it.
func (c *Cache) Expiry(h http.Header, fetched time.Time) time.Time {
	ttl, ok := httpmsg.FreshFor(h, fetched)
	if !ok {
		ttl = c.cfg.DefaultTTL
	}
	return fetched.Add(max(ttl, 0))
}

// expired is the one freshness predicate of both tiers: an entry is fresh
// only while now is before its expiry (RFC 9111: while its age is less than
// its freshness lifetime), so at the expiry instant itself it is stale.
func expired(expires, now time.Time) bool { return !expires.After(now) }

// Stale reports whether a response that carried header h and was obtained at
// fetched is past its Expiry now, by the predicate the cache judges its own
// entries with; the large-object tier asks it of its manifests.
func (c *Cache) Stale(h http.Header, fetched time.Time) bool {
	return expired(c.Expiry(h, fetched), c.cfg.Clock())
}

// Get returns a fresh response for key built from its entry, or nil when
// absent or expired.
func (c *Cache) Get(key string) *httpmsg.Response {
	resp, _ := c.GetUntil(key)
	return resp
}

// GetUntil is Get that also returns the entry's expiry, so a copy handed to
// a peer keeps the holder's deadline. The response has a header map of its
// own, decoded from the entry's header bytes, and shares the stored body,
// read-only until Materialize copies it; it is built outside the shard lock
// (entries are immutable once stored).
func (c *Cache) GetUntil(key string) (*httpmsg.Response, time.Time) {
	now := c.cfg.Clock()
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		return c.getL2(key)
	}
	if expired(e.expires, now) {
		sh.removeLocked(e)
		sh.mu.Unlock()
		c.expired.Add(1)
		return c.getL2(key)
	}
	sh.moveToFrontLocked(e)
	sh.mu.Unlock()
	c.hits.Add(1)
	return e.hit(), e.expires
}

// hit builds the response a cache hit serves from e.
func (e *entry) hit() *httpmsg.Response {
	resp := e.Response()
	resp.FromCache = true
	return resp
}

// Until reports whether key has a fresh entry and until when — the expiry
// GetUntil would return — without reading or counting it: the memory entry's,
// else the disk tier's.
func (c *Cache) Until(key string) (time.Time, bool) {
	now := c.cfg.Clock()
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok && !expired(e.expires, now) {
		expires := e.expires
		sh.mu.Unlock()
		return expires, true
	}
	sh.mu.Unlock()
	if d := c.l2.Load(); d != nil {
		return d.Until(key)
	}
	return time.Time{}, false
}

// getL2 consults the disk tier on a memory miss, promoting a hit back
// into the memory LRU. The record's header bytes become the entry's as they
// are, and its body is copied out at its exact length. The disk copy stays
// in place until it expires or the disk budget evicts it, so the tier is
// inclusive: a later crash still rewarms from it.
func (c *Cache) getL2(key string) (*httpmsg.Response, time.Time) {
	d := c.l2.Load()
	if d == nil {
		c.misses.Add(1)
		return nil, time.Time{}
	}
	stored, expires, ok := d.get(key)
	if !ok {
		c.misses.Add(1)
		return nil, time.Time{}
	}
	e := &entry{Stored: stored, key: key, expires: expires}
	c.putEntry(e)
	c.diskHits.Add(1)
	return e.hit(), expires
}

// Put stores a response under key if it is cacheable and not stale on
// arrival, until the Expiry its headers give it from now. It returns whether
// the response was stored.
func (c *Cache) Put(key string, resp *httpmsg.Response) bool {
	if resp == nil {
		return false
	}
	return c.PutUntil(key, resp, c.Expiry(resp.Header, c.cfg.Clock()))
}

// PutUntil is Put with the expiry decided by the caller: a copy fetched from
// a peer's cache keeps the holder's deadline instead of starting a new one.
// A response that is already past that deadline is reported unstored, so the
// node neither holds nor publishes it. The entry is made before the shard
// lock is acquired (httpmsg.Response.StoredForm): its header is encoded once,
// and it keeps the reply's body array when the reply owns one of the body's
// size, and copies the body once otherwise. Either way the caller's response
// goes on into the pipeline as a hit does: a script that writes into its
// body writes into a copy (Materialize). Streamed bodies never enter the
// whole-body cache — the large-object tier owns them (storing one here would
// pin a lazy view, not bytes).
func (c *Cache) PutUntil(key string, resp *httpmsg.Response, expires time.Time) bool {
	if resp == nil || resp.Stream != nil || !resp.Cacheable() || expired(expires, c.cfg.Clock()) {
		return false
	}
	return c.putEntry(&entry{Stored: resp.StoredForm(), key: key, expires: expires})
}

// Refresh revalidates the stored entry for key against a 304 Not Modified.
// When the 304 validates that entry (validates), the entry is renewed as RFC
// 9111 §4.3.4 asks, by the rules of §3.2: each header field the 304 carries
// replaces the stored one of its name, Content-Length excepted; the renewed
// response counts as fetched now, and its expiry is the updated header's
// Expiry from now. A renewal that makes the response one a shared cache may
// not store (the 304 says no-store) drops the entry instead. The renewed
// entry is a new one swapped in under the shard lock, so a hit built outside
// it never sees a half-updated header. The 304 itself is never stored — it
// has no body, so storing it would later serve an empty page. Returns
// whether a stored entry was renewed.
func (c *Cache) Refresh(key string, resp *httpmsg.Response) bool {
	if resp == nil || resp.Status != http.StatusNotModified {
		return false
	}
	now := c.cfg.Clock()
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return false
	}
	h := httpmsg.DecodeHeader(e.Header)
	if !validates(resp.Header, h) {
		return false
	}
	for k, vs := range resp.Header {
		if k != "Content-Length" {
			h[k] = vs
		}
	}
	if !httpmsg.Storable(e.Status, h) {
		sh.removeLocked(e)
		return false
	}
	renewed := &entry{Stored: e.Stored, key: key, expires: c.Expiry(h, now)}
	renewed.Header = httpmsg.EncodeHeader(h)
	renewed.Fetched = now
	sh.removeLocked(e)
	sh.insertLocked(renewed)
	return true
}

// validates reports whether a 304 with header nm selects the stored response
// with header stored for update, as RFC 9111 §4.3.4 allows: by the 304's
// entity tag, equal to the stored one (strong comparison for a strong tag,
// weak for a weak one); without a tag, by the same Last-Modified; and with no
// validator on either side, as the one response stored under the key. A 304
// to a client's own conditional request that names another representation
// renews nothing.
func validates(nm, stored http.Header) bool {
	if tag := nm.Get("Etag"); tag != "" {
		have := stored.Get("Etag")
		if weak, ok := strings.CutPrefix(tag, "W/"); ok {
			return have != "" && strings.TrimPrefix(have, "W/") == weak
		}
		return have == tag
	}
	if lm := nm.Get("Last-Modified"); lm != "" {
		return lm == stored.Get("Last-Modified")
	}
	return stored.Get("Etag") == "" && stored.Get("Last-Modified") == ""
}

func (c *Cache) putEntry(e *entry) bool {
	sh := c.shard(e.key)
	if e.size() > sh.maxBytes {
		// The response cannot survive in this shard's byte budget: storing
		// it would only evict the shard and self-evict. Report it unstored
		// so the node does not publish a copy it cannot hold.
		return false
	}
	sh.mu.Lock()
	if old, ok := sh.entries[e.key]; ok {
		sh.removeLocked(old)
	}
	sh.insertLocked(e)
	evicted := sh.evictLocked()
	sh.mu.Unlock()
	c.stores.Add(1)
	if n := len(evicted); n > 0 {
		c.evictions.Add(int64(n))
		c.demote(evicted)
	}
	return true
}

// demote hands evicted-but-fresh entries to the disk tier, outside any
// shard lock. Responses a shared cache may not store (Cache-Control:
// no-store / private) never entered the cache, and a renewal that would make
// one drops its entry, so the entry's bytes go to disk as they are.
func (c *Cache) demote(evicted []*entry) {
	d := c.l2.Load()
	if d == nil {
		return
	}
	now := c.cfg.Clock()
	for _, e := range evicted {
		if expired(e.expires, now) {
			continue
		}
		d.put(e.key, &e.Stored, e.expires)
		c.demotions.Add(1)
	}
}

// FlushToDisk demotes every fresh memory entry to the disk
// tier without evicting it — the graceful-shutdown path, so the next
// boot rewarms the whole working set, not just what eviction happened to
// demote. A no-op without an attached tier.
func (c *Cache) FlushToDisk() {
	d := c.l2.Load()
	if d == nil {
		return
	}
	now := c.cfg.Clock()
	for _, sh := range c.shards {
		sh.mu.Lock()
		fresh := make([]*entry, 0, len(sh.entries))
		for _, e := range sh.entries {
			if !expired(e.expires, now) {
				fresh = append(fresh, e)
			}
		}
		sh.mu.Unlock()
		// Entries are immutable once stored, so writing them after the
		// lock is released is safe.
		for _, e := range fresh {
			d.put(e.key, &e.Stored, e.expires)
			c.demotions.Add(1)
		}
	}
}

// Invalidate removes key from the cache, including the disk tier. The
// disk entry goes first so a concurrent Get racing this call cannot
// promote it back into the memory tier after the memory entry is gone (a
// Get that already read the disk entry can still repopulate — callers
// needing exactness must serialize invalidation with traffic).
func (c *Cache) Invalidate(key string) {
	if d := c.l2.Load(); d != nil {
		d.Invalidate(key)
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		sh.removeLocked(e)
	}
}

// Clear removes every memory entry without demoting anything. The disk
// tier is untouched — it models a disk, which survives the events (crash,
// test reset) that clear memory.
func (c *Cache) Clear() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.clearLocked()
		sh.mu.Unlock()
	}
}

// Len returns the number of entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Expired:   c.expired.Load(),
		Demotions: c.demotions.Load(),
		DiskHits:  c.diskHits.Load(),
	}
	if d := c.l2.Load(); d != nil {
		s.Disk = d.Stats()
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// size is what an entry counts against its shard's byte budget.
func (e *entry) size() int64 { return int64(len(e.Body)) }

// clearLocked empties the shard.
func (sh *shard) clearLocked() {
	sh.entries = make(map[string]*entry)
	sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	sh.bytes = 0
}

// insertLocked files e under its key as the most recently used entry.
func (sh *shard) insertLocked(e *entry) {
	sh.entries[e.key] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.size()
}

func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	sh.bytes -= e.size()
}

func (sh *shard) pushFrontLocked(e *entry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.next.prev = e
	sh.lru.next = e
}

func (sh *shard) moveToFrontLocked(e *entry) {
	if sh.lru.next != e {
		e.prev.next, e.next.prev = e.next, e.prev
		sh.pushFrontLocked(e)
	}
}

// evictLocked evicts LRU entries until the shard is within budget and
// returns them (oldest last) so the caller can demote fresh ones to the
// disk tier outside the lock.
func (sh *shard) evictLocked() []*entry {
	var evicted []*entry
	for (len(sh.entries) > sh.maxEntries || sh.bytes > sh.maxBytes) && sh.lru.prev != &sh.lru {
		e := sh.lru.prev
		sh.removeLocked(e)
		evicted = append(evicted, e)
	}
	return evicted
}

// ---------------------------------------------------------------------------
// Memo: generic memoization cache for decision trees and script contexts
// ---------------------------------------------------------------------------

// Memo is a small concurrency-safe memoization cache. Unlike Cache it
// stores arbitrary values (parsed decision trees, pooled scripting contexts)
// and does not clone them; entries live until evicted. Reads take a shared
// lock so the loader's stage lookups (three per request) scale across cores.
type Memo[T any] struct {
	mu      sync.RWMutex
	maxSize int
	items   map[string]T
}

// NewMemo returns a memo cache holding at most maxSize entries (zero means
// 1024).
func NewMemo[T any](maxSize int) *Memo[T] {
	if maxSize <= 0 {
		maxSize = 1024
	}
	return &Memo[T]{maxSize: maxSize, items: make(map[string]T)}
}

// Get returns the memoized value for key and whether it was present.
func (m *Memo[T]) Get(key string) (T, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.items[key]
	return v, ok
}

// Put stores value under key.
func (m *Memo[T]) Put(key string, value T) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.items) >= m.maxSize {
		// Simple random-ish eviction: drop an arbitrary entry. The memo
		// cache is small and rebuilding an entry is cheap (microseconds).
		for k := range m.items {
			delete(m.items, k)
			break
		}
	}
	m.items[key] = value
}
