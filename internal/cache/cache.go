// Package cache implements the edge node's expiration-based caches.
//
// Two caches from the paper's prototype are provided, beside the
// single-flight Group (flight.go) that their users coalesce misses through:
//
//   - Cache: the HTTP proxy cache holding complete responses keyed by
//     request cache key, honouring the web's expiration-based consistency
//     model (Section 3.3) with a configurable default TTL and LRU eviction.
//     The cache is sharded by key hash so concurrent pipelines do not
//     serialize on one lock. A store copies the body once; a hit hands out
//     a clone that shares the stored bytes until a script touches them
//     (httpmsg.Response.Materialize). It owns the freshness decision
//     (Expiry) for every tier of the node, the large-object tier included.
//   - Memo: a small in-memory memoization cache used for parsed decision
//     trees and reusable scripting contexts (the 4 microsecond / 3
//     microsecond retrievals reported in Section 5.1). The pipeline's
//     negative caching of missing nakika.js resources is a Memo.
package cache

import (
	"container/list"
	"net/http"
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
	// Clock returns the current time; nil means time.Now. Tests and the
	// simulator inject virtual clocks here.
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

type entry struct {
	key     string
	resp    *httpmsg.Response
	expires time.Time
	size    int64
	elem    *list.Element
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recently used
	bytes      int64
	maxEntries int
	maxBytes   int64
}

// Cache is a concurrency-safe expiration-based response cache with LRU
// eviction, sharded by key hash. Counters are atomics so the hot path never
// takes a lock beyond its own shard, and cached responses are cloned outside
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
			lru:        list.New(),
			maxEntries: c.MaxEntries / n,
			maxBytes:   c.MaxBytes / int64(n),
		}
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

// Now returns the cache clock's time: the one clock every freshness
// decision on the node is taken against.
func (c *Cache) Now() time.Time { return c.cfg.Clock() }

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

// Get returns a cached response clone for key, or nil when absent or
// expired.
func (c *Cache) Get(key string) *httpmsg.Response {
	resp, _ := c.GetUntil(key)
	return resp
}

// GetUntil is Get that also returns the entry's expiry, so a copy handed to
// a peer keeps the holder's deadline. The clone has its own headers and
// shares the stored body, read-only until Materialize copies it; it is taken
// outside the shard lock (cached responses are immutable once stored).
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
	sh.lru.MoveToFront(e.elem)
	cached, expires := e.resp, e.expires
	sh.mu.Unlock()
	c.hits.Add(1)
	resp := cached.Clone()
	resp.FromCache = true
	return resp, expires
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
// into the memory LRU. The disk copy stays in place until it expires or
// the disk budget evicts it, so the tier is inclusive: a later crash
// still rewarms from it.
func (c *Cache) getL2(key string) (*httpmsg.Response, time.Time) {
	d := c.l2.Load()
	if d == nil {
		c.misses.Add(1)
		return nil, time.Time{}
	}
	resp, expires, ok := d.Get(key)
	if !ok {
		c.misses.Add(1)
		return nil, time.Time{}
	}
	c.putEntry(key, resp, expires)
	c.diskHits.Add(1)
	out := resp.Clone()
	out.FromCache = true
	return out, expires
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
// node neither holds nor publishes it. The stored copy is taken before the
// shard lock is acquired, and it is the one body copy a store makes: the
// caller's response goes on into the pipeline, where a script may write into
// its body. Streamed bodies never enter the whole-body cache — the
// large-object tier owns them (storing one here would pin a lazy view, not
// bytes).
func (c *Cache) PutUntil(key string, resp *httpmsg.Response, expires time.Time) bool {
	if resp == nil || resp.Stream != nil || !resp.Cacheable() || expired(expires, c.cfg.Clock()) {
		return false
	}
	stored := resp.Clone()
	if err := stored.Materialize(); err != nil {
		return false
	}
	return c.putEntry(key, stored, expires)
}

// Refresh revalidates the stored entry for key against a 304 Not Modified:
// the entry's expiry moves to the 304's Expiry. The 304 itself is never
// stored — it has no body, so storing it would later serve an empty page; it
// only renews the 200 it validates. Returns whether a stored entry was
// refreshed.
func (c *Cache) Refresh(key string, resp *httpmsg.Response) bool {
	if resp == nil || resp.Status != http.StatusNotModified {
		return false
	}
	expires := c.Expiry(resp.Header, c.cfg.Clock())
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return false
	}
	e.expires = expires
	sh.lru.MoveToFront(e.elem)
	return true
}

func (c *Cache) putEntry(key string, resp *httpmsg.Response, expires time.Time) bool {
	size := int64(len(resp.Body))
	sh := c.shard(key)
	if size > sh.maxBytes {
		// The response cannot survive in this shard's byte budget: storing
		// it would only evict the shard and self-evict. Report it unstored
		// so the node does not publish a copy it cannot hold.
		return false
	}
	e := &entry{key: key, resp: resp, expires: expires, size: size}
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.removeLocked(old)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.bytes += size
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
// no-store / private) never entered the cache, and the tier re-checks.
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
		d.Put(e.key, e.resp, e.expires)
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
			d.Put(e.key, e.resp, e.expires)
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
		sh.entries = make(map[string]*entry)
		sh.lru.Init()
		sh.bytes = 0
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

func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	sh.bytes -= e.size
}

// evictLocked evicts LRU entries until the shard is within budget and
// returns them (oldest last) so the caller can demote fresh ones to the
// disk tier outside the lock.
func (sh *shard) evictLocked() []*entry {
	var evicted []*entry
	for len(sh.entries) > sh.maxEntries || sh.bytes > sh.maxBytes {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
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
