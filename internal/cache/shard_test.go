package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestShardCountDefaults(t *testing.T) {
	// Production-sized budgets get the full default shard fan-out.
	c := New(Config{})
	if len(c.shards) != defaultShards {
		t.Errorf("default shards = %d, want %d", len(c.shards), defaultShards)
	}
	// Small caches collapse to one shard to keep exact global LRU order.
	small := New(Config{MaxEntries: 8})
	if len(small.shards) != 1 {
		t.Errorf("small cache shards = %d, want 1", len(small.shards))
	}
	// A byte budget too small to split also collapses.
	tiny := New(Config{MaxBytes: 100, MaxEntries: 100_000})
	if len(tiny.shards) != 1 {
		t.Errorf("tiny-bytes cache shards = %d, want 1", len(tiny.shards))
	}
	// Requested counts round down to a power of two.
	c3 := New(Config{Shards: 3})
	if len(c3.shards) != 2 {
		t.Errorf("Shards:3 → %d, want 2", len(c3.shards))
	}
}

func TestShardedEntriesDistributeAndBound(t *testing.T) {
	c := New(Config{MaxEntries: 4096, MaxBytes: 256 << 20, Shards: 8})
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	for i := 0; i < 2000; i++ {
		c.Put(fmt.Sprintf("GET http://site-%d.example.org/", i), okResponse("body"))
	}
	if c.Len() != 2000 {
		t.Errorf("len = %d, want 2000", c.Len())
	}
	used := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		if len(sh.entries) > 0 {
			used++
		}
		sh.mu.Unlock()
	}
	if used < 2 {
		t.Errorf("keys landed in %d shard(s); hash should spread them", used)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("GET http://site-%d.example.org/", i)
		if got := c.Get(key); got == nil || string(got.Body) != "body" {
			t.Fatalf("lost %q after sharded insert", key)
		}
	}
}

func TestShardedNeverExceedsGlobalLimits(t *testing.T) {
	c := New(Config{MaxEntries: 512, MaxBytes: 256 << 20, Shards: 16})
	for i := 0; i < 5000; i++ {
		c.Put(fmt.Sprintf("k%d", i), okResponse("v"))
	}
	if c.Len() > 512 {
		t.Errorf("len = %d exceeds MaxEntries", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Error("expected evictions under pressure")
	}
}

// TestOversizedEntryRejected verifies a response bigger than one shard's
// byte budget is reported unstored instead of being inserted and
// self-evicted (which would make the node publish a copy it cannot hold).
func TestOversizedEntryRejected(t *testing.T) {
	c := New(Config{MaxBytes: 64 << 20, MaxEntries: 4096, Shards: 16})
	if len(c.shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(c.shards))
	}
	perShard := int64(64<<20) / 16
	big := okResponse(strings.Repeat("x", int(perShard)+1))
	if c.Put("big", big) {
		t.Error("a response exceeding the shard budget must report unstored")
	}
	if c.Get("big") != nil {
		t.Error("oversized response must not be cached")
	}
	small := okResponse("fits")
	if !c.Put("small", small) {
		t.Error("a normal response should store")
	}
}

// TestCloneHappensOutsideLock drives readers of one hot key concurrently
// with writers replacing it and mutators scribbling on returned bodies after
// Materialize, as scripts do. The race detector proves that a materialized
// hit never aliases cache-owned memory.
func TestCloneHappensOutsideLock(t *testing.T) {
	c := New(Config{})
	body := strings.Repeat("x", 64<<10)
	c.Put("hot", okResponse(body))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				resp := c.Get("hot")
				if resp == nil {
					continue
				}
				// Scripts mutate response bodies in place, after
				// Materialize; that must never touch the cached copy or
				// another reader's clone.
				if err := resp.Materialize(); err != nil {
					t.Error(err)
					return
				}
				resp.Body[0] = 'Y'
				resp.Body[len(resp.Body)-1] = 'Z'
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put("hot", okResponse(body))
			}
		}()
	}
	wg.Wait()
	if got := c.Get("hot"); got == nil || got.Body[0] != 'x' {
		t.Error("cached copy was mutated through a returned clone")
	}
}

func TestStatsCountersUnderConcurrency(t *testing.T) {
	c := New(Config{})
	const (
		writers = 4
		readers = 4
		per     = 250
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Put(fmt.Sprintf("w%d-%d", g, i), okResponse("v"))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Get(fmt.Sprintf("w%d-%d", g, i)) // all hits
				c.Get(fmt.Sprintf("absent-%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Stores != writers*per {
		t.Errorf("stores = %d, want %d", st.Stores, writers*per)
	}
	if st.Hits != readers*per {
		t.Errorf("hits = %d, want %d", st.Hits, readers*per)
	}
	if st.Misses != readers*per {
		t.Errorf("misses = %d, want %d", st.Misses, readers*per)
	}
}
