package cache

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// joinFlight starts n callers of g.Do(key) whose fn must never run, and
// returns once all of them are parked on the flight already open for key.
func joinFlight(t *testing.T, g *Group[int], key string, n int) (results <-chan [2]any) {
	t.Helper()
	out := make(chan [2]any, n)
	for i := 0; i < n; i++ {
		go func() {
			v, joined, shared, err := g.Do(key, func() (int, error) {
				t.Error("a waiter ran fn")
				return 0, nil
			})
			if !joined || !shared {
				t.Errorf("waiter: joined=%v shared=%v", joined, shared)
			}
			out <- [2]any{v, err}
		}()
	}
	for {
		g.mu.Lock()
		waiting := g.calls[key].waiters
		g.mu.Unlock()
		if waiting == n {
			return out
		}
		runtime.Gosched()
	}
}

func TestGroupCoalesces(t *testing.T) {
	var g Group[int]
	v, joined, shared, err := g.Do("k", func() (int, error) { return 1, nil })
	if v != 1 || joined || shared || err != nil {
		t.Errorf("lone caller: %v joined=%v shared=%v %v", v, joined, shared, err)
	}
	var waiters <-chan [2]any
	v, joined, shared, err = g.Do("k", func() (int, error) {
		waiters = joinFlight(t, &g, "k", 4)
		return 7, nil
	})
	if v != 7 || joined || !shared || err != nil {
		t.Errorf("leader: %v joined=%v shared=%v %v; want 7, a leader, shared", v, joined, shared, err)
	}
	for i := 0; i < 4; i++ {
		if r := <-waiters; r[0] != 7 || r[1] != nil {
			t.Errorf("waiter got %v", r)
		}
	}
}

// TestGroupLeaderPanic covers the panic path for all three users of the
// group (response flights, segment flights, stage loads): waiters get
// ErrFlightPanic, the leader's panic reaches its caller, and the key is not
// wedged.
func TestGroupLeaderPanic(t *testing.T) {
	var g Group[int]
	var waiters <-chan [2]any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("leader recovered %v, want its own panic", r)
			}
		}()
		g.Do("k", func() (int, error) {
			waiters = joinFlight(t, &g, "k", 3)
			panic("boom")
		})
	}()
	wg.Wait()
	for i := 0; i < 3; i++ {
		if r := <-waiters; !errors.Is(r[1].(error), ErrFlightPanic) {
			t.Errorf("waiter got %v, want ErrFlightPanic", r)
		}
	}
	if v, joined, _, err := g.Do("k", func() (int, error) { return 2, nil }); v != 2 || joined || err != nil {
		t.Errorf("key wedged after a panic: %v joined=%v %v", v, joined, err)
	}
}
