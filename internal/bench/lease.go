package bench

import (
	"fmt"
	"time"

	"nakika/internal/cluster"
	"nakika/internal/lease"
	"nakika/internal/state"
)

// LeaseResult reports the distributed-lease experiment: the arbitration and
// fencing costs on a 5-node simulated ring, in messages and virtual time.
// Everything derives from the simulated transport's counters, so CI gates
// the tracked metrics with the usual deterministic regression threshold.
type LeaseResult struct {
	// Nodes/Ops size the experiment.
	Nodes int
	Ops   int
	// AcquireMsgsPerOp / AcquireVirtualPerOp cost one uncontended acquire
	// (forwarded to the record's acting owner, decided, replicated).
	AcquireMsgsPerOp    float64
	AcquireVirtualPerOp time.Duration
	// FencedWriteMsgsPerOp / FencedWriteVirtualPerOp cost one fenced state
	// write; PlainWrite* are the same writes without a fencing token — the
	// archived contrast showing what the fence admission adds.
	FencedWriteMsgsPerOp    float64
	FencedWriteVirtualPerOp time.Duration
	PlainWriteMsgsPerOp     float64
	PlainWriteVirtualPerOp  time.Duration
	// CrashHandoverMsgs / CrashHandoverVirtual cost the adaptive path: the
	// holder is crashed (detector-visible) and a single heir acquire is
	// granted over it. ExpiryHandover* is the TTL path a silent holder
	// forces: the heir polls until the lease lapses. The adaptive path
	// must stay strictly below both expiry numbers.
	CrashHandoverMsgs     float64
	CrashHandoverVirtual  time.Duration
	ExpiryHandoverMsgs    float64
	ExpiryHandoverVirtual time.Duration
	// ExpiryPolls counts the heir's denied acquires before the TTL grant.
	ExpiryPolls int
}

const (
	leaseBenchNodes = 5
	leaseBenchSeed  = 13
	leaseBenchOps   = 16
	leaseBenchSite  = "bench-lease.example.org"
	leaseBenchTTL   = 50 * time.Millisecond
)

// leaseBenchMeasure runs ops calls of fn and returns the per-op message and
// virtual-time cost.
func leaseBenchMeasure(c *cluster.Cluster, ops int, fn func(i int) error) (float64, time.Duration, error) {
	d0, t0 := c.Sim.Stats().Delivered, c.Sim.Now()
	for i := 0; i < ops; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	msgs := float64(c.Sim.Stats().Delivered-d0) / float64(ops)
	virt := (c.Sim.Now() - t0) / time.Duration(ops)
	return msgs, virt, nil
}

// RunLease measures lease arbitration, fenced-write overhead, and the two
// handover paths on one fixed-seed cluster (the seed sweep lives in the
// nightly soak; the bench is a trajectory).
func RunLease() (LeaseResult, error) {
	res := LeaseResult{Nodes: leaseBenchNodes, Ops: leaseBenchOps}
	c, err := cluster.New(cluster.Config{
		N: leaseBenchNodes, Seed: leaseBenchSeed, Latency: time.Millisecond,
		Persist: true,
	}, cluster.NewCountingOrigin())
	if err != nil {
		return res, err
	}
	c.StabilizeAll(4)

	owner := func(name string) string {
		return c.Ring.Successor(state.ReplicaKey(leaseBenchSite, lease.Key(name))).Name
	}
	pick := func(avoid ...string) string {
		for _, n := range c.Names() {
			if !c.Live(n) {
				continue
			}
			skip := false
			for _, a := range avoid {
				if n == a {
					skip = true
					break
				}
			}
			if !skip {
				return n
			}
		}
		return ""
	}

	// Uncontended acquires: distinct lease names from one node, so every op
	// is a fresh grant (no renewal shortcut), TTL far beyond the run.
	holderName := pick()
	holder := c.NodeByName(holderName)
	res.AcquireMsgsPerOp, res.AcquireVirtualPerOp, err = leaseBenchMeasure(c, leaseBenchOps, func(i int) error {
		name := fmt.Sprintf("acq-%02d", i)
		if token, ok := holder.LeaseAcquire(leaseBenchSite, name, time.Hour); !ok || token != 1 {
			return fmt.Errorf("bench: acquire %s = (%d, %v)", name, token, ok)
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// Fenced writes under one holdership vs the same writes unfenced: the
	// same keys in both arms, so the same owners and replica sets. A fenced
	// write is placed exactly like a plain one, so it reads back through
	// another node at once and costs the same messages — the fence
	// admission rides the replicated write.
	const writerJob = "writer"
	token, ok := holder.LeaseAcquire(leaseBenchSite, writerJob, time.Hour)
	if !ok {
		return res, fmt.Errorf("bench: writer lease denied")
	}
	writeKey := func(i int) string { return fmt.Sprintf("write-%02d", i) }
	res.FencedWriteMsgsPerOp, res.FencedWriteVirtualPerOp, err = leaseBenchMeasure(c, leaseBenchOps, func(i int) error {
		return holder.FencedStatePut(leaseBenchSite, writeKey(i), "fenced", writerJob, token)
	})
	if err != nil {
		return res, err
	}
	reader := c.NodeByName(pick(holderName))
	for i := 0; i < leaseBenchOps; i++ {
		if v, ok := reader.StateGet(leaseBenchSite, writeKey(i)); !ok || v != "fenced" {
			return res, fmt.Errorf("bench: fenced write %s read back through %s = (%q, %v)", writeKey(i), reader.Name(), v, ok)
		}
	}
	res.PlainWriteMsgsPerOp, res.PlainWriteVirtualPerOp, err = leaseBenchMeasure(c, leaseBenchOps, func(i int) error {
		return holder.StatePut(leaseBenchSite, writeKey(i), "plain")
	})
	if err != nil {
		return res, err
	}
	if res.FencedWriteMsgsPerOp != res.PlainWriteMsgsPerOp {
		return res, fmt.Errorf("bench: fenced writes cost %v msgs/op, the same writes unfenced %v", res.FencedWriteMsgsPerOp, res.PlainWriteMsgsPerOp)
	}

	// Crash-visible handover: the holder of a fresh lease is crashed and a
	// single heir acquire is granted by the adaptive path. Holder and heir
	// sit away from the record's acting owner so the measured cost is the
	// forwarded-arbitration shape, not local luck.
	const crashJob = "crash-job"
	crashOwner := owner(crashJob)
	crashHolder := pick(crashOwner)
	heirName := pick(crashOwner, crashHolder)
	if tok, ok := c.NodeByName(crashHolder).LeaseAcquire(leaseBenchSite, crashJob, time.Hour); !ok || tok != 1 {
		return res, fmt.Errorf("bench: crash holder acquire = (%d, %v)", tok, ok)
	}
	c.Crash(crashHolder)
	res.CrashHandoverMsgs, res.CrashHandoverVirtual, err = leaseBenchMeasure(c, 1, func(int) error {
		if tok, ok := c.NodeByName(heirName).LeaseAcquire(leaseBenchSite, crashJob, time.Hour); !ok || tok != 2 {
			return fmt.Errorf("bench: crash heir acquire = (%d, %v)", tok, ok)
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	// TTL-expiry handover: a live-but-silent holder, so the heir can only
	// poll out the TTL. The lease record's acting owner must be live (the
	// crash victim above stays down).
	ttlJob := ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("ttl-job-%02d", i)
		if o := owner(name); o != crashHolder {
			ttlJob = name
			break
		}
	}
	if ttlJob == "" {
		return res, fmt.Errorf("bench: no ttl lease record owned by a live node")
	}
	ttlOwner := owner(ttlJob)
	ttlHolder := pick(ttlOwner, crashHolder)
	ttlHeir := pick(ttlOwner, crashHolder, ttlHolder)
	if tok, ok := c.NodeByName(ttlHolder).LeaseAcquire(leaseBenchSite, ttlJob, leaseBenchTTL); !ok || tok != 1 {
		return res, fmt.Errorf("bench: ttl holder acquire = (%d, %v)", tok, ok)
	}
	res.ExpiryHandoverMsgs, res.ExpiryHandoverVirtual, err = leaseBenchMeasure(c, 1, func(int) error {
		for polls := 0; polls < 500; polls++ {
			if tok, ok := c.NodeByName(ttlHeir).LeaseAcquire(leaseBenchSite, ttlJob, leaseBenchTTL); ok {
				if tok != 2 {
					return fmt.Errorf("bench: ttl heir token = %d", tok)
				}
				res.ExpiryPolls = polls
				return nil
			}
		}
		return fmt.Errorf("bench: ttl heir never granted")
	})
	if err != nil {
		return res, err
	}
	if res.ExpiryPolls == 0 {
		return res, fmt.Errorf("bench: ttl heir granted without a denial; the expiry path was not exercised")
	}
	if res.CrashHandoverMsgs >= res.ExpiryHandoverMsgs || res.CrashHandoverVirtual >= res.ExpiryHandoverVirtual {
		return res, fmt.Errorf("bench: adaptive handover (%0.f msgs, %s) not strictly cheaper than expiry (%0.f msgs, %s)",
			res.CrashHandoverMsgs, res.CrashHandoverVirtual, res.ExpiryHandoverMsgs, res.ExpiryHandoverVirtual)
	}
	return res, nil
}

// FormatLease renders the lease experiment rows.
func FormatLease(r LeaseResult) string {
	return fmt.Sprintf(
		"%d nodes, %d ops per measurement, replication 3\n"+
			"  uncontended acquire:  %6.1f msgs/op   %10s virtual/op\n"+
			"  fenced write:         %6.1f msgs/op   %10s virtual/op   (plain: %.1f msgs, %s)\n"+
			"  handover, crash seen: %6.0f msgs      %10s virtual\n"+
			"  handover, TTL wait:   %6.0f msgs      %10s virtual      (%d denied polls)\n",
		r.Nodes, r.Ops,
		r.AcquireMsgsPerOp, r.AcquireVirtualPerOp,
		r.FencedWriteMsgsPerOp, r.FencedWriteVirtualPerOp, r.PlainWriteMsgsPerOp, r.PlainWriteVirtualPerOp,
		r.CrashHandoverMsgs, r.CrashHandoverVirtual,
		r.ExpiryHandoverMsgs, r.ExpiryHandoverVirtual, r.ExpiryPolls)
}
