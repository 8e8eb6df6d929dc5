package cache

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nakika/internal/httpmsg"
)

// fakeClock is a controllable time source for expiration tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func okResponse(body string) *httpmsg.Response {
	r := httpmsg.NewTextResponse(200, body)
	return r
}

func TestGetMissThenHit(t *testing.T) {
	c := New(Config{})
	if got := c.Get("GET http://example.org/"); got != nil {
		t.Fatal("expected miss")
	}
	c.Put("GET http://example.org/", okResponse("home"))
	got := c.Get("GET http://example.org/")
	if got == nil || string(got.Body) != "home" {
		t.Fatalf("expected hit, got %v", got)
	}
	if !got.FromCache {
		t.Error("FromCache should be set on hits")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCachedBodyIsIsolated: a store copies the body once, a hit copies
// nothing, and a hit's body is private once Materialize has run — which is
// what every script access to a body goes through.
func TestCachedBodyIsIsolated(t *testing.T) {
	c := New(Config{})
	put := okResponse("original")
	c.Put("k", put)
	put.Body[0] = 'P' // the caller's response goes on into a pipeline
	a, b := c.Get("k"), c.Get("k")
	if &a.Body[0] != &b.Body[0] {
		t.Error("two hits should share the stored bytes until one is materialized")
	}
	if err := a.Materialize(); err != nil {
		t.Fatal(err)
	}
	a.Body[0] = 'X'
	if got := c.Get("k"); string(got.Body) != "original" || string(b.Body) != "original" {
		t.Errorf("a write after Materialize reached the cached copy or another hit: %q, %q", got.Body, b.Body)
	}
}

func TestExpiration(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{DefaultTTL: 10 * time.Second, Clock: clock.Now})
	c.Put("k", okResponse("v"))
	if c.Get("k") == nil {
		t.Fatal("expected hit before expiry")
	}
	clock.Advance(11 * time.Second)
	if c.Get("k") != nil {
		t.Fatal("expected miss after default TTL")
	}
	if c.Stats().Expired != 1 {
		t.Errorf("expired counter = %d", c.Stats().Expired)
	}
}

func TestMaxAgeRespected(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{DefaultTTL: 1 * time.Second, Clock: clock.Now})
	r := okResponse("long-lived")
	r.SetMaxAge(3600)
	c.Put("k", r)
	clock.Advance(30 * time.Minute)
	if c.Get("k") == nil {
		t.Fatal("max-age=3600 entry should still be fresh after 30 minutes")
	}
	clock.Advance(31 * time.Minute)
	if c.Get("k") != nil {
		t.Fatal("entry should expire after max-age")
	}
}

func TestUncacheableNotStored(t *testing.T) {
	c := New(Config{})
	r := okResponse("secret")
	r.Header.Set("Cache-Control", "no-store")
	if c.Put("k", r) {
		t.Error("no-store response should not be stored")
	}
	if c.Get("k") != nil {
		t.Error("no-store response should not be returned")
	}
	if c.Put("err", httpmsg.NewTextResponse(500, "oops")) {
		t.Error("500 response should not be stored")
	}
}

func TestLRUEvictionByCount(t *testing.T) {
	c := New(Config{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), okResponse("v"))
	}
	// Touch k0 so k1 becomes least recently used.
	c.Get("k0")
	c.Put("k3", okResponse("v"))
	if c.Get("k1") != nil {
		t.Error("k1 should have been evicted (LRU)")
	}
	if c.Get("k0") == nil || c.Get("k3") == nil {
		t.Error("k0 and k3 should remain")
	}
	if c.Stats().Evictions == 0 {
		t.Error("eviction counter should be non-zero")
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(Config{MaxBytes: 100, MaxEntries: 1000})
	c.Put("a", okResponse(strings.Repeat("x", 60)))
	c.Put("b", okResponse(strings.Repeat("y", 60)))
	if c.Get("a") != nil {
		t.Error("a should be evicted to stay under the byte budget")
	}
	if c.Get("b") == nil {
		t.Error("b should remain")
	}
	if c.Stats().Bytes > 100 {
		t.Errorf("bytes = %d exceeds budget", c.Stats().Bytes)
	}
}

func TestInvalidateAndClear(t *testing.T) {
	c := New(Config{})
	c.Put("a", okResponse("1"))
	c.Put("b", okResponse("2"))
	c.Invalidate("a")
	if c.Get("a") != nil {
		t.Error("a should be gone after Invalidate")
	}
	if c.Get("b") == nil {
		t.Error("b should remain after invalidating a")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear should remove everything")
	}
}

func TestOverwrite(t *testing.T) {
	c := New(Config{})
	c.Put("k", okResponse("old"))
	c.Put("k", okResponse("new"))
	if got := c.Get("k"); string(got.Body) != "new" {
		t.Errorf("got %q, want new", got.Body)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after overwrite", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{MaxEntries: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", i%32)
				if i%3 == 0 {
					c.Put(key, okResponse(fmt.Sprintf("v%d-%d", g, i)))
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond absence of data races (run with -race) and a sane
	// entry count.
	if c.Len() > 128 {
		t.Errorf("len = %d exceeds MaxEntries", c.Len())
	}
}

func TestMemo(t *testing.T) {
	m := NewMemo[string](0)
	if _, ok := m.Get("x"); ok {
		t.Error("unexpected hit")
	}
	m.Put("x", "decision-tree")
	if v, ok := m.Get("x"); !ok || v != "decision-tree" {
		t.Errorf("got %q %v", v, ok)
	}
}

func TestMemoBounded(t *testing.T) {
	m := NewMemo[int](4)
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if len(m.items) > 5 {
		t.Errorf("memo grew to %d entries, want bounded", len(m.items))
	}
}

func TestPropertyPutGetRoundTrip(t *testing.T) {
	f := func(keys []string, body string) bool {
		c := New(Config{MaxEntries: 10_000, MaxBytes: 1 << 30})
		for _, k := range keys {
			c.Put("k:"+k, okResponse(body))
		}
		for _, k := range keys {
			got := c.Get("k:" + k)
			if got == nil || string(got.Body) != body {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNeverExceedsLimits(t *testing.T) {
	f := func(n uint8) bool {
		c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20})
		for i := 0; i < int(n); i++ {
			c.Put(fmt.Sprintf("k%d", i), okResponse("body"))
		}
		return c.Len() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Test304NeverBecomesServedBody pins the revalidation contract: a 304 Not
// Modified must never be stored as content (it has no body — a later hit
// would serve an empty page). It refreshes the stored 200 instead.
func Test304NeverBecomesServedBody(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{DefaultTTL: 60 * time.Second, Clock: clock.Now})
	key := "GET http://example.org/page"

	// A bare 304 with no stored 200 behind it must not enter the cache.
	notModified := httpmsg.NewResponse(304)
	notModified.Header.Set("Etag", `"v1"`)
	if c.Put(key, notModified) {
		t.Fatal("304 stored as content")
	}
	if got := c.Get(key); got != nil {
		t.Fatalf("cache served a body for a 304: %q", got.Body)
	}
	if c.Refresh(key, notModified) {
		t.Fatal("Refresh with no stored entry reported success")
	}

	// Store the real 200, let it expire, revalidate with the 304: the entry
	// comes back fresh and still serves the original body.
	c.Put(key, okResponse("real content"))
	clock.Advance(61 * time.Second)
	if got := c.Get(key); got != nil {
		t.Fatal("entry should have expired")
	}
	c.Put(key, okResponse("real content"))
	clock.Advance(30 * time.Second)
	if !c.Refresh(key, notModified) {
		t.Fatal("Refresh failed on a stored entry")
	}
	clock.Advance(45 * time.Second) // past the original expiry, inside the refreshed one
	got := c.Get(key)
	if got == nil || string(got.Body) != "real content" {
		t.Fatalf("refreshed entry lost: %v", got)
	}
	if got.Status != 200 {
		t.Fatalf("served status %d, want the stored 200", got.Status)
	}

	// Refresh must reject anything that is not a 304.
	if c.Refresh(key, okResponse("x")) {
		t.Fatal("Refresh accepted a 200")
	}
}

// TestStreamedResponseNotStored pins that lazy large-object views stay out
// of the whole-body cache.
func TestStreamedResponseNotStored(t *testing.T) {
	c := New(Config{})
	resp := okResponse("tiny")
	resp.Stream = fakeStream{}
	resp.Body = nil
	if c.Put("k", resp) {
		t.Fatal("streamed response stored in whole-body cache")
	}
}

type fakeStream struct{}

func (fakeStream) TotalLen() int64 { return 1 << 30 }
func (fakeStream) Range(from, to int64) (io.ReadCloser, error) {
	return nil, errors.New("not readable")
}
