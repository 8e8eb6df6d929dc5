package simnet

import (
	"sync"
	"testing"
	"time"
)

func TestLoopRunsEventsInTimeOrder(t *testing.T) {
	l := NewLoop()
	var order []int
	l.At(30*time.Millisecond, func(now time.Duration) { order = append(order, 3) })
	l.At(10*time.Millisecond, func(now time.Duration) { order = append(order, 1) })
	l.At(20*time.Millisecond, func(now time.Duration) { order = append(order, 2) })
	l.AdvanceTo(15 * time.Millisecond)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after AdvanceTo(15ms): %v", order)
	}
	if l.Now() != 15*time.Millisecond {
		t.Errorf("now = %v", l.Now())
	}
	if len(l.agenda) != 2 {
		t.Errorf("pending = %d", len(l.agenda))
	}
	l.AdvanceTo(30 * time.Millisecond)
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Errorf("after drain: %v", order)
	}
	if l.Now() != 30*time.Millisecond {
		t.Errorf("final now = %v", l.Now())
	}
}

func TestLoopTieBreaksByInsertion(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		l.At(time.Millisecond, func(now time.Duration) { order = append(order, i) })
	}
	l.AdvanceTo(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestLoopCallbacksMaySchedule(t *testing.T) {
	l := NewLoop()
	var fired []time.Duration
	l.At(time.Millisecond, func(now time.Duration) {
		fired = append(fired, now)
		l.At(now+time.Millisecond, func(now time.Duration) {
			fired = append(fired, now)
		})
	})
	l.AdvanceTo(2 * time.Millisecond)
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestLoopPastEventsClampToPresent(t *testing.T) {
	l := NewLoop()
	l.AdvanceTo(100 * time.Millisecond)
	var at time.Duration
	l.At(10*time.Millisecond, func(now time.Duration) { at = now })
	l.AdvanceTo(100 * time.Millisecond)
	if at != 100*time.Millisecond {
		t.Errorf("past event fired at %v", at)
	}
}

func TestLoopConcurrentAdvance(t *testing.T) {
	l := NewLoop()
	var mu sync.Mutex
	count := 0
	for i := 1; i <= 100; i++ {
		l.At(time.Duration(i)*time.Millisecond, func(now time.Duration) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l.AdvanceTo(time.Duration(g+1) * 20 * time.Millisecond)
		}(g)
	}
	wg.Wait()
	l.AdvanceTo(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 100 {
		t.Errorf("events run = %d, want 100 exactly once each", count)
	}
}
