package cache

import (
	"errors"
	"sync"
)

// ErrFlightPanic is handed to the waiters of a flight whose leader panicked;
// the leader's own panic propagates to its caller after they are released.
var ErrFlightPanic = errors.New("cache: in-flight call panicked")

// Group coalesces concurrent calls for one key into a single execution
// whose result every caller receives (single-flight): a cold-cache stampede
// of N requests costs one origin fetch, N readers of one missing segment one
// refetch, N cold loads of one script one compile. The zero value is ready.
type Group[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done    chan struct{}
	waiters int
	val     T
	err     error
}

// Do runs fn once among the concurrent callers of key and returns its
// result to each of them. joined is true for a caller that waited on another
// caller's execution; shared is true when the value went to more than one
// caller (always for a waiter; for the leader, when anyone joined), so a
// caller that will mutate the value knows when it needs its own copy.
func (g *Group[T]) Do(key string, fn func() (T, error)) (val T, joined, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.val, true, true, c.err
	}
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[T])
	}
	c := &flightCall[T]{done: make(chan struct{}), err: ErrFlightPanic}
	g.calls[key] = c
	g.mu.Unlock()

	// The cleanup must run even if fn panics: a wedged entry would block
	// every later call for this key forever. c.err is only overwritten when
	// fn returns, so on a panic the waiters see ErrFlightPanic.
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		// Joins happen under g.mu before this delete, so the count is final.
		shared = c.waiters > 0
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, false, c.err
}
