package cache

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// TestSlotClassRounding: every length from 1 to past a chunk lands in a slot
// at least as large and less than an eighth larger (16 bytes at the least),
// and the classes number the slot sizes in order without a gap.
func TestSlotClassRounding(t *testing.T) {
	prevClass, prevSize := 0, minSlot
	for n := 1; n <= 3*chunkSize; n++ {
		class, size := slotClass(n)
		if size < n || (n > minSlot && 8*(size-n) >= n) || (n <= minSlot && size != minSlot) {
			t.Fatalf("slotClass(%d) = class %d of %d B", n, class, size)
		}
		if size != prevSize {
			if class != prevClass+1 || size < prevSize {
				t.Fatalf("slotClass(%d) = class %d of %d B after class %d of %d B", n, class, size, prevClass, prevSize)
			}
			prevClass, prevSize = class, size
		} else if class != prevClass {
			t.Fatalf("slotClass(%d) = class %d, want %d for %d B", n, class, prevClass, size)
		}
	}
}

// arenaBody is the one body key ever has, of a length between 1 byte and
// 20 KiB chosen by the key, in bytes other than the poison.
func arenaBody(key string) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	b := make([]byte, 1+rng.Intn(20<<10))
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	return b
}

// TestArenaLifetime: no reader is ever handed bytes of a slot that was
// released, which the race detector cannot see, because the arena is not Go
// memory. Eight goroutines store, hit (into a buffer each goroutine lends as
// a client connection does, through Get, and as the encoded peer reply),
// renew by 304, invalidate and let expire 96 keys in a
// 32-entry cache whose evictions demote to a disk tier and whose misses
// promote from it; every key has one body, derived from the key, and every
// released slot is poisoned at once, so a read of a released slot shows as a
// wrong byte. Clear then gives every chunk back.
func TestArenaLifetime(t *testing.T) {
	clock := newFakeClock()
	d := openDisk(t, store.NewMemFS(), 0, clock.Now)
	c := New(Config{MaxEntries: 32, Clock: clock.Now, L2: d})
	var released atomic.Int64
	c.arena.onRelease = func(slot []byte) {
		for i := range slot {
			slot[i] = 0xDB
		}
		released.Add(1)
	}
	const keys, goroutines, ops = 96, 8, 1500
	bodies := make([][]byte, keys)
	for i := range bodies {
		bodies[i] = arenaBody("k" + strconv.Itoa(i))
	}
	reply := func(i int) *httpmsg.Response {
		resp := httpmsg.NewResponse(http.StatusOK)
		resp.Header.Set("Etag", `"k`+strconv.Itoa(i)+`"`)
		resp.Header.Set("Cache-Control", "max-age="+strconv.Itoa(1+i%7))
		resp.Body = bytes.Clone(bodies[i])
		return resp
	}
	check := func(how string, i int, body []byte) {
		if !bytes.Equal(body, bodies[i]) {
			j := 0
			for j < len(body) && j < len(bodies[i]) && body[j] == bodies[i][j] {
				j++
			}
			t.Errorf("%s of k%d: %d bytes, want %d; first difference at byte %d", how, i, len(body), len(bodies[i]), j)
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var lent httpmsg.Reuse
			var kb []byte
			for range ops {
				i := rng.Intn(keys)
				key := "k" + strconv.Itoa(i)
				switch op := rng.Intn(20); {
				case op < 5:
					c.Put(key, reply(i))
				case op < 10:
					req := httpmsg.AcquireRequest()
					req.SetReuse(&lent)
					kb = append(kb[:0], key...)
					if resp := c.GetFor(kb, req); resp != nil {
						check("a client hit", i, resp.Body)
					}
					req.Release()
				case op < 13:
					if resp := c.Get(key); resp != nil {
						check("Get", i, resp.Body)
					}
				case op < 16:
					if payload, _, ok := c.Encoded(key); ok {
						resp, err := httpmsg.DecodeResponse(payload)
						if err != nil {
							t.Errorf("the encoded reply of k%d: %v", i, err)
							return
						}
						check("the encoded reply", i, resp.Body)
					}
				case op < 18:
					nm := httpmsg.NewResponse(http.StatusNotModified)
					nm.Header.Set("Etag", `"k`+strconv.Itoa(i)+`"`)
					nm.Header.Set("Cache-Control", "max-age="+strconv.Itoa(1+rng.Intn(7)))
					c.Refresh(key, nm)
				case op < 19:
					c.Invalidate(key)
				default:
					clock.Advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 || st.DiskHits == 0 || st.Expired == 0 || released.Load() == 0 {
		t.Errorf("the run did not exercise every way out of a slot: %+v, %d released", st, released.Load())
	}
	for i := range keys {
		if resp := c.Get("k" + strconv.Itoa(i)); resp != nil {
			check("a last Get", i, resp.Body)
		}
	}
	c.Clear()
	if a := c.Stats().Arena; a != (ArenaStats{}) {
		t.Errorf("after Clear the arena holds %+v, want nothing", a)
	}
}

// TestArenaAccounting: carved bytes are slots handed out of the chunks
// mapped now, live bytes the slots in use; a released slot is reused before
// a new one is carved, and a chunk goes back when its last slot does.
func TestArenaAccounting(t *testing.T) {
	c := New(Config{})
	_, slot := slotClass(1000)
	_, keySlot := slotClass(len("k0")) // each key takes a slot of its own, in a chunk of the smallest class
	for i := range 3 {
		c.Put(fmt.Sprint("k", i), okResponse(string(bytes.Repeat([]byte{'x'}, 1000))))
	}
	if a := c.Stats().Arena; a != (ArenaStats{Carved: int64(3 * (slot + keySlot)), Live: int64(3 * (slot + keySlot)), Chunks: 2}) {
		t.Fatalf("three 1000-byte bodies: %+v, want three %d-byte slots in one chunk and their keys' in another", a, slot)
	}
	c.Invalidate("k1")
	if a := c.Stats().Arena; a.Carved != int64(3*(slot+keySlot)) || a.Live != int64(2*(slot+keySlot)) {
		t.Fatalf("after one invalidation: %+v", a)
	}
	c.Put("k3", okResponse(string(bytes.Repeat([]byte{'y'}, 990))))
	if a := c.Stats().Arena; a.Carved != int64(3*(slot+keySlot)) || a.Live != int64(3*(slot+keySlot)) {
		t.Fatalf("a body of the same class reuses the released slot: %+v", a)
	}
	if got := c.Get("k3"); got == nil || string(got.Body) != string(bytes.Repeat([]byte{'y'}, 990)) {
		t.Fatalf("the reused slot reads %v", got)
	}
	c.Put("empty", okResponse(""))
	if got := c.Get("empty"); got == nil || got.Body != nil || c.Stats().Arena.Live != int64(3*(slot+keySlot)+keySlot) {
		t.Fatalf("an empty body takes no slot, its key one: %+v, %+v", got, c.Stats().Arena)
	}
	for _, k := range []string{"k0", "k2", "k3", "empty"} {
		c.Invalidate(k)
	}
	if a := c.Stats().Arena; a != (ArenaStats{}) {
		t.Fatalf("with no entry left the arena holds %+v", a)
	}
}
