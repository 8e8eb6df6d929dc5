package core

import (
	"context"
	"log"
	"time"
)

// This file is the node's lifecycle after NewNode: Tick runs its periodic
// work and Stop shuts it down. A driver calls Tick: nakikad on every beat of
// a wall-clock ticker at the control interval, the cluster harness at the
// instants Tick returns, in virtual time.

const (
	// roundInterval is the time from the end of one maintenance round to
	// the start of the next.
	roundInterval = 5 * time.Second
	// flushInterval is the time from the end of one access-log flush to the
	// start of the next.
	flushInterval = time.Minute
)

// job is one piece of periodic work, next due the interval every after its
// last run returned. busy marks a run in progress, which no other Tick
// starts twice.
type job struct {
	every time.Duration
	run   func()
	due   time.Time
	busy  bool
}

// Tick runs the jobs due on the node clock, one after another, and returns
// when the next job not running is due. The jobs, in the order a Tick takes
// them:
//   - the resource manager's CONTROL procedure (Figure 6), every control
//     interval;
//   - with an overlay, the maintenance round (Maintain) 5 s after the last
//     one returns. The first round is the boot catch-up alone (CatchUp): a
//     full round before the peers listen would find nothing answering and
//     empty the successor list. Later rounds retry a catch-up that failed;
//   - the access-log flush (FlushLogs), a minute after the last one returns.
//
// The first Tick lays the schedule out from its own instant, so only the
// boot catch-up is due then. Tick may run concurrently with itself: a job
// still running in one Tick is skipped by the others, so a round or a log
// post blocked on the network never holds back the control procedure. A job
// counts as due within half a control interval of its time, since a driver's
// beats keep a phase of their own. After Stop, Tick starts nothing and
// returns the zero Time.
func (n *Node) Tick() time.Time {
	slack := n.res.ControlInterval() / 2
	n.schedMu.Lock()
	defer n.schedMu.Unlock()
	if n.jobs == nil {
		n.jobs = n.layOut(n.clock())
	}
	var next time.Time
	for _, j := range n.jobs {
		if !n.stopped && !j.busy && !n.clock().Add(slack).Before(j.due) {
			j.busy = true
			n.schedMu.Unlock()
			j.run()
			n.schedMu.Lock()
			j.busy, j.due = false, n.clock().Add(j.every)
		}
		if !j.busy && (next.IsZero() || j.due.Before(next)) {
			next = j.due
		}
	}
	if n.stopped {
		return time.Time{}
	}
	return next
}

// layOut returns the node's jobs as of its first Tick, at now.
func (n *Node) layOut(now time.Time) []*job {
	control := n.res.ControlInterval()
	jobs := []*job{{every: control, due: now.Add(control), run: n.res.ControlOnce}}
	if n.overlay != nil {
		round := &job{every: roundInterval, due: now}
		round.run = func() { // the boot catch-up, once; Maintain from then on
			round.run = n.Maintain
			if _, err := n.CatchUp(); err != nil {
				log.Printf("core: catch-up: %v (retried every maintenance round)", err)
			}
		}
		jobs = append(jobs, round)
	}
	return append(jobs, &job{every: flushInterval, due: now.Add(flushInterval), run: func() {
		if err := n.FlushLogs(); err != nil {
			log.Printf("core: log flush: %v", err)
		}
	}})
}

// Stop shuts the node down, in order:
//  1. the client and admin ports drain (Drain);
//  2. the schedule ends: no Tick starts a job again;
//  3. the transport closes, if it has a Close;
//  4. the access log's lines are posted (FlushLogs), so a restart loses none;
//  5. the engines are flushed and closed (Shutdown).
//
// ctx bounds the drain and the log post together: when it ends, the
// connections left are closed and the lines not yet posted are given up.
// A drain or post cut short is logged, not returned: the error is
// Shutdown's, since a node whose engines closed cleanly lost nothing it
// acknowledged.
func (n *Node) Stop(ctx context.Context) error {
	if err := n.Drain(ctx); err != nil {
		log.Printf("core: drain: %v", err)
	}
	n.schedMu.Lock()
	n.stopped = true
	n.schedMu.Unlock()
	if c, ok := n.tr.(interface{ Close() }); ok {
		c.Close()
	}
	flushed := make(chan error, 1)
	go func() { flushed <- n.FlushLogs() }()
	var err error
	select {
	case err = <-flushed:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		log.Printf("core: log flush: %v", err)
	}
	return n.Shutdown()
}
