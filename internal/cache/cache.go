// Package cache implements the edge node's expiration-based caches.
//
// It provides the paper prototype's proxy cache, beside the single-flight
// Group (flight.go) that its users coalesce misses through:
//
//   - Cache: the HTTP proxy cache holding complete responses keyed by
//     request cache key, honouring the web's expiration-based consistency
//     model (Section 3.3) with a configurable default TTL and LRU eviction.
//     The cache is sharded by key hash so concurrent pipelines do not
//     serialize on one lock. An entry holds a response in the form the
//     binary codec writes it (httpmsg.Stored): the header, one immutable
//     string, the body, and the scalar fields, on an intrusive LRU list; a
//     hit serves the header as it is, and the disk tier (Disk) writes and
//     reads the same bytes. Keys and bodies live off the Go heap, in an
//     arena of size-class slots the cache owns (arena.go): a store copies
//     the key and the body into a slot each, a shard files the entry
//     under the key's seeded 64-bit hash (hashKey,
//     the disk tier's too) and a lookup compares the key in its slot, so a
//     key that shares another's hash is a miss; every reader copies the
//     body out, under the shard lock, into memory of its own. A client
//     hit copies into the buffer its connection lends the request
//     (httpmsg.Request.SetReuse), a peer's fetch into its encoded
//     reply (Encoded). It owns the freshness decision (Expiry, Expired),
//     the rule that keeps an expired copy for its validators alone (Kept)
//     and the 304 rule (Renew) for every tier of the node, the large-object
//     tier included. A lookup answers fresh, stale or miss: Get and its
//     kin serve fresh copies only, and Lookup also answers the stale copy a
//     tier keeps, which the node's fetch chain revalidates and a 304 renews
//     (Refresh).
package cache

import (
	"bytes"
	"hash/maphash"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// Arena is the body storage of the memory tier.
	Arena ArenaStats
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

// keySeed seeds hashKey. It is the process's own, so no client can choose
// keys that collide.
var keySeed = maphash.MakeSeed()

// hashKey is the hash both tiers file a key under: a memory entry demotes
// under the hash it was stored with. Tests swap it to force collisions.
var hashKey = func(key string) uint64 { return maphash.String(keySeed, key) }

// entry is one cached response, in the form the codec writes it, on its
// shard's LRU list. Its Body is a slot of the cache's arena, in chunk (nil
// for an empty body), and its key another, at keyOff in keyChunk (nil for an
// empty key); both are read only under the shard lock. The key has a slot of
// its own because a body's length is often a class's slot size exactly
// (SPECweb's 1 KiB and 10 KiB are), which a key beside it would take into
// the next class. Only its list links change once it is stored, under the shard
// lock: a renewal swaps in a new entry, which takes over the slots.
type entry struct {
	httpmsg.Stored
	hash           uint64
	expires        time.Time
	chunk          *chunk
	keyChunk       *chunk
	keyOff, keyLen uint32
	prev, next     *entry
}

// key returns the entry's key, in its arena slot.
func (e *entry) key() []byte {
	if e.keyChunk == nil {
		return nil
	}
	return e.keyChunk.mem[e.keyOff : e.keyOff+e.keyLen]
}

// shard is one independently locked slice of the cache.
type shard struct {
	arena      *arena
	mu         sync.Mutex
	entries    map[uint64]*entry // by hashKey
	lru        entry             // sentinel of the LRU ring: lru.next is the most recently used entry
	bytes      int64
	maxEntries int
	maxBytes   int64
}

// Cache is a concurrency-safe expiration-based response cache with LRU
// eviction, sharded by key hash. Counters are atomics so the hot path never
// takes a lock beyond its own shard and the arena's, and a hit decodes its
// header outside the shard lock.
type Cache struct {
	cfg    Config
	shards []*shard
	mask   uint64
	l2     *Disk
	arena  *arena

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
	cache := &Cache{cfg: c, shards: make([]*shard, n), mask: uint64(n - 1), l2: c.L2, arena: newArena()}
	for i := range cache.shards {
		sh := &shard{
			arena:      cache.arena,
			maxEntries: c.MaxEntries / n,
			maxBytes:   c.MaxBytes / int64(n),
			entries:    make(map[uint64]*entry),
		}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		cache.shards[i] = sh
	}
	return cache
}

// L2 returns the attached disk tier, or nil.
func (c *Cache) L2() *Disk { return c.l2 }

// shard returns the shard owning the key with hash h.
func (c *Cache) shard(h uint64) *shard { return c.shards[h&c.mask] }

// lookupLocked returns key's entry, which has hash h; an entry of another
// key that shares the hash is not key's.
func (sh *shard) lookupLocked(h uint64, key string) (*entry, bool) {
	e, ok := sh.entries[h]
	if !ok || string(e.key()) != key {
		return nil, false
	}
	return e, true
}

// Expiry returns the instant until which a shared cache may serve a response
// that carried header h and was obtained at now: the header's own freshness
// information, else the default TTL. A response whose headers say it is stale
// already (max-age=0, an Expires that has passed) expires at now, which no
// tier serves or stores. It is computed once, on the node clock, when a copy
// is stored or renewed, and the copy keeps it: Put files whole-body entries
// under it, and the large-object tier keeps it in its manifests.
func (c *Cache) Expiry(h httpmsg.Header, now time.Time) time.Time {
	ttl, ok := httpmsg.FreshFor(h, now)
	if !ok {
		ttl = c.cfg.DefaultTTL
	}
	return now.Add(max(ttl, 0))
}

// Expired is the one freshness predicate of every tier: a copy is fresh only
// while now is before its expiry (RFC 9111: while its age is less than its
// freshness lifetime), so at the expiry instant itself it is stale.
func Expired(expires, now time.Time) bool { return !expires.After(now) }

// StaleIfError is how long past its expiry a copy whose refetch failed may
// still serve: RFC 5861 §4's stale-if-error, as one node constant. The
// pipeline's stages serve their last good script by it.
const StaleIfError = 5 * time.Minute

// Kept is the rule by which every tier keeps a copy with header h that
// expires at expires: while it is fresh, and once it has expired only for its
// validators (an ETag or a Last-Modified), by which the fetch chain's
// revalidation step may renew it with a conditional request. A copy without
// one is dropped. A reply stale on arrival is stored by the same rule.
func Kept(h httpmsg.Header, expires, now time.Time) bool {
	return !Expired(expires, now) || h.Get("Etag") != "" || h.Get("Last-Modified") != ""
}

// Get returns a fresh response for key built from its entry, with a body
// of its own, or nil when absent or expired.
func (c *Cache) Get(key string) *httpmsg.Response { return c.get(key, nil, nil) }

// GetFor is Get for a response served in reply to req, with the key given
// by its bytes (httpmsg.Request.CacheKeyBytes): the body is copied into the
// buffer req lends (httpmsg.Request.ReplyBuffer) and the response is the one
// it lends (httpmsg.Stored.Response), so a warm hit on a client connection
// allocates nothing; a script that touches the body gets a copy
// (Materialize). A nil req lends none. The read keeps nothing of its key
// (an entry stores a copy in the arena), so it reads key's bytes in place
// rather than a string copied from them.
func (c *Cache) GetFor(key []byte, req *httpmsg.Request) *httpmsg.Response {
	return c.get(unsafe.String(unsafe.SliceData(key), len(key)), req, nil)
}

// Lookup is Get with the third answer of the fetch chain's lookup, for a
// flight's leader: for a key with no fresh copy, the expired copy a tier
// keeps for its validators (Kept), which the chain's revalidation step may
// renew; Stale is zero when no tier keeps one. A stale copy is never served.
func (c *Cache) Lookup(key string) (*httpmsg.Response, Stale) {
	var stale Stale
	resp := c.get(key, nil, &stale)
	return resp, stale
}

// get is GetFor, reporting a stale copy in stale when it is not nil.
func (c *Cache) get(key string, req *httpmsg.Request, stale *Stale) *httpmsg.Response {
	var hit httpmsg.Stored
	var borrowed bool
	if _, ok := c.read(key, func(s httpmsg.Stored) {
		hit = s
		hit.Body = nil
		if len(s.Body) > 0 {
			hit.Body, borrowed = req.ReplyBuffer(len(s.Body))
			copy(hit.Body, s.Body)
		}
	}, stale); !ok {
		return nil
	}
	resp := hit.Response(req, borrowed)
	resp.FromCache = true
	return resp
}

// Stale is an expired copy a tier keeps for its validators (Kept): what the
// fetch chain's revalidation step asks the origin with, and what a 304 then
// renews (Refresh).
type Stale struct {
	// Tier names the tier that keeps the copy: "memory" or "disk" here, and
	// "lob" for a large-object manifest; "" for no copy.
	Tier string
	// Header is the copy's header.
	Header httpmsg.Header
}

// Encoded returns key's fresh entry as EncodeResponse encodes a hit of it,
// and the entry's expiry, so a copy handed to a peer keeps the holder's
// deadline: the cache.get reply, written from the stored bytes without a
// response in between.
func (c *Cache) Encoded(key string) ([]byte, time.Time, bool) {
	var payload []byte
	expires, ok := c.read(key, func(s httpmsg.Stored) {
		s.FromCache = true
		payload = httpmsg.EncodeStored(&s)
	}, nil)
	return payload, expires, ok
}

// read finds key's fresh entry, in memory or else promoted from the disk
// tier, and hands its stored form to copyOut while the body cannot be
// released: copyOut copies what it keeps of the body. It counts the hit or
// the miss and returns the entry's expiry. Neither read nor anything it
// calls keeps key: GetFor's key is a view of bytes its caller reuses. An
// expired entry is dropped unless it is Kept. A memory entry kept so is the newest copy, and the disk
// tier is not asked; when stale is not nil it is reported there.
func (c *Cache) read(key string, copyOut func(httpmsg.Stored), stale *Stale) (time.Time, bool) {
	now := c.cfg.Clock()
	h := hashKey(key)
	sh := c.shard(h)
	sh.mu.Lock()
	e, ok := sh.lookupLocked(h, key)
	if ok && !Expired(e.expires, now) {
		sh.moveToFrontLocked(e)
		copyOut(e.Stored)
		sh.mu.Unlock()
		c.hits.Add(1)
		return e.expires, true
	}
	if ok {
		c.expired.Add(1)
		if Kept(e.Header, e.expires, now) {
			sh.mu.Unlock()
			c.misses.Add(1)
			if stale != nil {
				*stale = Stale{Tier: "memory", Header: e.Header}
			}
			return time.Time{}, false
		}
		sh.dropLocked(e)
	}
	sh.mu.Unlock()
	return c.readL2(h, key, copyOut, stale)
}

// Until reports whether key has a fresh entry and until when — the expiry
// a read would return — without reading or counting it: the memory entry's,
// else the disk tier's.
func (c *Cache) Until(key string) (time.Time, bool) {
	now := c.cfg.Clock()
	h := hashKey(key)
	sh := c.shard(h)
	sh.mu.Lock()
	if e, ok := sh.lookupLocked(h, key); ok && !Expired(e.expires, now) {
		expires := e.expires
		sh.mu.Unlock()
		return expires, true
	}
	sh.mu.Unlock()
	if c.l2 != nil {
		return c.l2.Until(key)
	}
	return time.Time{}, false
}

// readL2 consults the disk tier on a memory miss, promoting a hit back into
// the memory LRU. The reader copies from the record, and the entry takes the
// record's header bytes as they are and its body into an arena slot. The
// disk copy stays in place until it expires or the disk budget evicts it, so
// the tier is inclusive: a later crash still rewarms from it. When stale is
// not nil, a stale record the tier keeps is reported there and promoted too,
// as the stale entry a 304 then renews (Refresh).
func (c *Cache) readL2(h uint64, key string, copyOut func(httpmsg.Stored), stale *Stale) (time.Time, bool) {
	var expires time.Time
	hit := false
	if c.l2 != nil {
		c.l2.get(key, func(s httpmsg.Stored, exp time.Time, expired bool) {
			switch {
			case !expired:
				copyOut(s)
				expires, hit = exp, true
			case stale != nil:
				*stale = Stale{Tier: "disk", Header: s.Header}
			default:
				return
			}
			c.putEntry(h, key, s, exp)
		})
	}
	if !hit {
		c.misses.Add(1)
		return time.Time{}, false
	}
	c.diskHits.Add(1)
	return expires, true
}

// Put stores a response under key if it is cacheable and Kept, until the
// Expiry its headers give it from now. It returns whether the response was
// stored fresh.
func (c *Cache) Put(key string, resp *httpmsg.Response) bool {
	if resp == nil {
		return false
	}
	return c.PutUntil(key, resp, c.Expiry(resp.Header, c.cfg.Clock()))
}

// PutUntil is Put with the expiry decided by the caller: a copy fetched from
// a peer's cache keeps the holder's deadline instead of starting a new one.
// A response that is already past that deadline is stored only if it is
// Kept, for its validators, and is reported unstored either way, so the node
// never publishes it. The entry is made before the shard lock is acquired
// (httpmsg.Response.StoredForm): its body is copied into an arena slot, so
// the caller's response goes on into the pipeline with the body it had.
// Streamed bodies never enter the whole-body cache — the large-object tier
// owns them (storing one here would pin a lazy view, not bytes).
func (c *Cache) PutUntil(key string, resp *httpmsg.Response, expires time.Time) bool {
	now := c.cfg.Clock()
	if resp == nil || resp.Stream != nil || !resp.Cacheable() || !Kept(resp.Header, expires, now) {
		return false
	}
	return c.putEntry(hashKey(key), key, resp.StoredForm(), expires) && !Expired(expires, now)
}

// Renewal is what a 304 Not Modified does to the stored copy it answers
// (Renew).
type Renewal uint8

const (
	// NotSelected: the 304 validates another representation than the
	// copy's, so it says nothing about the copy.
	NotSelected Renewal = iota
	// Unstorable: the updated header is one a shared cache may not store, so
	// the copy is dropped.
	Unstorable
	// Renewed: the copy is fresh again, with the updated header, until the
	// expiry Renew returns.
	Renewed
)

// Renew is the one 304 rule of every tier: the whole-body entry (Refresh)
// and the large-object manifest a 304 answers are renewed by it alike. A
// stored copy with status status and header stored is renewed by a 304 with
// header nm when the 304 selects it for update (RFC 9111 §4.3.4, validates);
// then each header field the 304 carries replaces the stored one of its name,
// Content-Length excepted (§3.2), in the updated header Renew returns. A copy
// whose updated header a shared cache may not store is Unstorable; any other
// is Renewed until the updated header's Expiry from now.
func (c *Cache) Renew(status int, stored, nm httpmsg.Header) (httpmsg.Header, Renewal, time.Time) {
	if !validates(nm, stored) {
		return stored, NotSelected, time.Time{}
	}
	prev := ""
	nm.Each(func(k, v string) {
		switch {
		case k == "Content-Length":
		case k != prev:
			stored.Set(k, v)
		default:
			stored.Add(k, v)
		}
		prev = k
	})
	if !httpmsg.Storable(status, stored) {
		return stored, Unstorable, time.Time{}
	}
	return stored, Renewed, c.Expiry(stored, c.cfg.Clock())
}

// Refresh renews key's memory entry, fresh or kept stale (a stale disk
// record is one once a lookup promoted it), by a 304 Not Modified, as Renew
// decides, and returns the renewed copy with a body of its own, or nil. A
// renewed entry takes the updated header and expiry and is served even if
// that expiry has passed: the origin has just confirmed it. The renewal is a
// new entry swapped in under the shard lock, which takes over the old one's
// slots, so a hit never sees a half-updated header. An unstorable entry is
// dropped from both tiers, and one the 304 does not select is left as it is.
// The 304 itself is never stored — it has no body, so storing it would later
// serve an empty page.
func (c *Cache) Refresh(key string, nm *httpmsg.Response) *httpmsg.Response {
	if nm == nil || nm.Status != http.StatusNotModified {
		return nil
	}
	hash := hashKey(key)
	sh := c.shard(hash)
	sh.mu.Lock()
	e, ok := sh.lookupLocked(hash, key)
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	h, renewal, expires := c.Renew(e.Status, e.Header, nm.Header)
	var renewed *httpmsg.Response
	switch renewal {
	case Renewed:
		r := *e
		r.expires = expires
		r.Header = h
		sh.removeLocked(e)
		sh.insertLocked(&r)
		renewed = ownCopy(r.Stored)
	case Unstorable:
		sh.dropLocked(e)
	}
	sh.mu.Unlock()
	if c.l2 != nil && renewal == Unstorable {
		c.l2.Invalidate(key)
	}
	return renewed
}

// ownCopy is the response for a stored copy, served from the cache with a
// body of its own (nil when empty).
func ownCopy(s httpmsg.Stored) *httpmsg.Response {
	if len(s.Body) > 0 {
		s.Body = bytes.Clone(s.Body)
	} else {
		s.Body = nil
	}
	resp := s.Response(nil, false)
	resp.FromCache = true
	return resp
}

// validates reports whether a 304 with header nm selects the stored response
// with header stored for update, as RFC 9111 §4.3.4 allows: by the 304's
// entity tag, equal to the stored one (strong comparison for a strong tag,
// weak for a weak one); without a tag, by the same Last-Modified; and with no
// validator on either side, as the one response stored under the key. A 304
// that names another representation renews nothing.
func validates(nm, stored httpmsg.Header) bool {
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

// putEntry files s under key, which has hash h, with the key and the body
// copied into arena slots. It supersedes the entry filed under h, whether
// key's or another's.
func (c *Cache) putEntry(h uint64, key string, s httpmsg.Stored, expires time.Time) bool {
	sh := c.shard(h)
	if int64(len(s.Body)) > sh.maxBytes {
		// The response cannot survive in this shard's byte budget: storing
		// it would only evict the shard and self-evict. Report it unstored
		// so the node does not publish a copy it cannot hold.
		return false
	}
	e := &entry{Stored: s, hash: h, expires: expires}
	if len(key) > 0 {
		kc, slot := c.arena.alloc(len(key))
		if kc == nil {
			return false
		}
		e.keyChunk, e.keyOff, e.keyLen = kc, uint32(len(kc.mem)-cap(slot)), uint32(copy(slot, key))
	}
	e.Body = nil
	if len(s.Body) > 0 {
		if e.chunk, e.Body = c.arena.alloc(len(s.Body)); e.chunk == nil {
			c.arena.release(e)
			return false
		}
		copy(e.Body, s.Body)
	}
	sh.mu.Lock()
	if old, ok := sh.entries[h]; ok {
		sh.dropLocked(old)
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
// shard lock, and then releases their slots: no reader reaches an evicted
// entry any more. Responses a shared cache may not store (Cache-Control:
// no-store / private) never entered the cache, and a renewal that would make
// one drops its entry, so the entry's bytes go to disk as they are.
func (c *Cache) demote(evicted []*entry) {
	d := c.l2
	now := c.cfg.Clock()
	for _, e := range evicted {
		if d != nil && !Expired(e.expires, now) {
			d.put(e.hash, e.key(), &e.Stored, e.expires)
			c.demotions.Add(1)
		}
		c.arena.release(e)
	}
}

// FlushToDisk demotes every fresh memory entry to the disk
// tier without evicting it — the graceful-shutdown path, so the next
// boot rewarms the whole working set, not just what eviction happened to
// demote. A no-op without an attached tier.
func (c *Cache) FlushToDisk() {
	d := c.l2
	if d == nil {
		return
	}
	now := c.cfg.Clock()
	for _, sh := range c.shards {
		// The shard lock keeps each body's slot from being released while
		// the disk tier writes it.
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !Expired(e.expires, now) {
				d.put(e.hash, e.key(), &e.Stored, e.expires)
				c.demotions.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// Invalidate removes key from the cache, including the disk tier. The
// disk entry goes first so a concurrent Get racing this call cannot
// promote it back into the memory tier after the memory entry is gone (a
// Get that already read the disk entry can still repopulate — callers
// needing exactness must serialize invalidation with traffic).
func (c *Cache) Invalidate(key string) {
	if c.l2 != nil {
		c.l2.Invalidate(key)
	}
	h := hashKey(key)
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.lookupLocked(h, key); ok {
		sh.dropLocked(e)
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
	if c.l2 != nil {
		s.Disk = c.l2.Stats()
	}
	s.Arena = c.arena.stats()
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

// insertLocked files e under its hash as the most recently used entry.
func (sh *shard) insertLocked(e *entry) {
	sh.entries[e.hash] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.size()
}

// removeLocked takes e off the shard and leaves its slots to the caller: to
// release after a disk write, or to hand to a renewed entry.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.hash)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	sh.bytes -= e.size()
}

// dropLocked removes e and releases its slots.
func (sh *shard) dropLocked(e *entry) {
	sh.removeLocked(e)
	sh.arena.release(e)
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
// disk tier outside the lock and then release their slots.
func (sh *shard) evictLocked() []*entry {
	var evicted []*entry
	for (len(sh.entries) > sh.maxEntries || sh.bytes > sh.maxBytes) && sh.lru.prev != &sh.lru {
		e := sh.lru.prev
		sh.removeLocked(e)
		evicted = append(evicted, e)
	}
	return evicted
}
