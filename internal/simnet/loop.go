package simnet

import (
	"container/heap"
	"sync"
	"time"
)

// Loop is a reusable discrete-event agenda with a virtual clock: Simulation
// runs on it, and so do other subsystems (the fault-injecting transport, the
// cluster harness's fault schedules). Events are executed in (time,
// insertion) order, the insertion count being the loop's own; callbacks run
// without the loop lock held, so they may schedule further events.
//
// A Loop may be driven incrementally from many goroutines: AdvanceTo
// serializes event execution behind a run lock, so at most one callback
// executes at a time and the virtual clock never moves backwards.
type Loop struct {
	mu     sync.Mutex // guards now, agenda, seq
	runMu  sync.Mutex // serializes event execution
	now    time.Duration
	agenda loopAgenda
	seq    int
}

type loopEvent struct {
	at  time.Duration
	seq int
	fn  func(now time.Duration)
}

type loopAgenda []*loopEvent

func (a loopAgenda) Len() int { return len(a) }
func (a loopAgenda) Less(i, j int) bool {
	if a[i].at != a[j].at {
		return a[i].at < a[j].at
	}
	return a[i].seq < a[j].seq
}
func (a loopAgenda) Swap(i, j int)       { a[i], a[j] = a[j], a[i] }
func (a *loopAgenda) Push(x interface{}) { *a = append(*a, x.(*loopEvent)) }
func (a *loopAgenda) Pop() interface{} {
	old := *a
	n := len(old)
	e := old[n-1]
	*a = old[:n-1]
	return e
}

// NewLoop returns an empty agenda at virtual time zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now
}

// At schedules fn at absolute virtual time t. Scheduling in the past is
// clamped to the present: the event fires on the next advance.
func (l *Loop) At(t time.Duration, fn func(now time.Duration)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t < l.now {
		t = l.now
	}
	l.seq++
	heap.Push(&l.agenda, &loopEvent{at: t, seq: l.seq, fn: fn})
}

// AdvanceTo runs every event scheduled at or before t in order and leaves
// the clock at t (or later, if a concurrent advance moved it further).
func (l *Loop) AdvanceTo(t time.Duration) {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	for {
		l.mu.Lock()
		if len(l.agenda) == 0 || l.agenda[0].at > t {
			if t > l.now {
				l.now = t
			}
			l.mu.Unlock()
			return
		}
		e := heap.Pop(&l.agenda).(*loopEvent)
		if e.at > l.now {
			l.now = e.at
		}
		now := l.now
		l.mu.Unlock()
		e.fn(now)
	}
}
