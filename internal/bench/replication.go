package bench

import (
	"fmt"
	"time"

	"nakika/internal/cluster"
	"nakika/internal/state"
)

// ReplicationResult is one replication-cost row: the per-operation message
// and virtual-time cost of hard-state writes, routed reads, and failover
// reads (owner dead) on a simulated 8-node ring at one replication factor.
//
// Every number here is derived from the simulated network's virtual clock
// and message counters, not wall time, so the results are bit-identical
// across machines — which is what lets CI gate on them with a tight
// regression threshold.
type ReplicationResult struct {
	// Factor is the replication factor (copies per key, owner included).
	Factor int
	// Nodes is the ring size.
	Nodes int
	// Writes is the number of hard-state puts in the burst.
	Writes int
	// WriteMsgsPerOp is simulated messages delivered per acknowledged
	// write (owner forwarding plus synchronous replica pushes).
	WriteMsgsPerOp float64
	// WriteVirtualPerOp is virtual time consumed per write.
	WriteVirtualPerOp time.Duration
	// ReadMsgsPerOp / ReadVirtualPerOp are the same for owner-routed reads
	// with every node alive.
	ReadMsgsPerOp    float64
	ReadVirtualPerOp time.Duration
	// FailoverReads counts the reads measured with the owner crashed;
	// zero (with the per-op costs zero) when the factor keeps no replicas
	// to fail over to.
	FailoverReads int
	// FailoverMsgsPerOp / FailoverVirtualPerOp are the per-op costs of
	// reads that had to route around the dead owner to a replica.
	FailoverMsgsPerOp    float64
	FailoverVirtualPerOp time.Duration
	// RepairMsgs is the messages six maintenance rounds deliver on a ring
	// that has converged after the burst: each node runs its one periodic
	// repair among them, so this is what keeping the replicas in step
	// costs when nothing diverged.
	RepairMsgs int64
	// CatchUpRecords is the records a node's catch-up moves when it
	// restarts on its own data after missing Writes/10 writes.
	CatchUpRecords int64
}

// RunReplicationCost measures the replication-cost experiment for each
// factor: boot an 8-node ring over the
// deterministic simulated transport, run a write burst through one entry
// node, read everything back, then crash one owner and read its keys
// through failover.
func RunReplicationCost(factors []int, writes int) ([]ReplicationResult, error) {
	const site = "bench.example.org"
	var out []ReplicationResult
	for _, k := range factors {
		c, err := cluster.New(cluster.Config{N: 8, Seed: 1, Latency: time.Millisecond, Replication: k}, cluster.NewCountingOrigin())
		if err != nil {
			return nil, err
		}
		c.StabilizeAll(4)
		entry := c.Node(0)
		key := func(i int) string { return fmt.Sprintf("rep-%05d", i) }

		msgs0, t0 := c.Sim.Stats().Delivered, c.Sim.Now()
		for i := 0; i < writes; i++ {
			if err := entry.StatePut(site, key(i), fmt.Sprintf("value-%05d", i)); err != nil {
				return nil, fmt.Errorf("bench: replication write k=%d: %w", k, err)
			}
		}
		msgs1, t1 := c.Sim.Stats().Delivered, c.Sim.Now()

		for i := 0; i < writes; i++ {
			if _, ok := entry.StateGet(site, key(i)); !ok {
				return nil, fmt.Errorf("bench: replication read-back k=%d lost %s", k, key(i))
			}
		}
		msgs2, t2 := c.Sim.Stats().Delivered, c.Sim.Now()

		// Crash one owner (not the entry node) and re-read every key it
		// owned: those reads pay the failover detour to the first live
		// replica.
		victim := ""
		for i := 0; i < writes && victim == ""; i++ {
			if o := c.Ring.Successor(state.ReplicaKey(site, key(i))).Name; o != entry.Name() {
				victim = o
			}
		}
		var victimKeys []string
		for i := 0; i < writes; i++ {
			if c.Ring.Successor(state.ReplicaKey(site, key(i))).Name == victim {
				victimKeys = append(victimKeys, key(i))
			}
		}
		c.Crash(victim)
		failovers := 0
		msgs3, t3 := c.Sim.Stats().Delivered, c.Sim.Now()
		if k >= 2 {
			for _, vk := range victimKeys {
				if _, ok := entry.StateGet(site, vk); !ok {
					return nil, fmt.Errorf("bench: failover read k=%d lost %s", k, vk)
				}
				failovers++
			}
		}
		msgs4, t4 := c.Sim.Stats().Delivered, c.Sim.Now()

		r := ReplicationResult{
			Factor:            k,
			Nodes:             8,
			Writes:            writes,
			WriteMsgsPerOp:    float64(msgs1-msgs0) / float64(writes),
			WriteVirtualPerOp: (t1 - t0) / time.Duration(writes),
			ReadMsgsPerOp:     float64(msgs2-msgs1) / float64(writes),
			ReadVirtualPerOp:  (t2 - t1) / time.Duration(writes),
			FailoverReads:     failovers,
		}
		if failovers > 0 {
			r.FailoverMsgsPerOp = float64(msgs4-msgs3) / float64(failovers)
			r.FailoverVirtualPerOp = (t4 - t3) / time.Duration(failovers)
		}
		if r.RepairMsgs, r.CatchUpRecords, err = repairAndCatchUp(k, writes); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// repairAndCatchUp measures maintenance on a persisted 8-node ring at
// factor k: the messages six rounds deliver once a burst of writes has
// converged, then the records a node's catch-up moves when it restarts on
// its own data after the ring took writes/10 more writes without it.
func repairAndCatchUp(k, writes int) (repairMsgs, catchUpRecords int64, err error) {
	const site = "bench.example.org"
	c, err := cluster.New(cluster.Config{N: 8, Seed: 1, Latency: time.Millisecond, Replication: k, Persist: true}, cluster.NewCountingOrigin())
	if err != nil {
		return 0, 0, err
	}
	c.StabilizeAll(4)
	entry := c.Node(0)
	put := func(i int) error {
		if err := entry.StatePut(site, fmt.Sprintf("rep-%05d", i), fmt.Sprintf("value-%05d", i)); err != nil {
			return fmt.Errorf("bench: maintenance write k=%d: %w", k, err)
		}
		return nil
	}
	for i := 0; i < writes; i++ {
		if err := put(i); err != nil {
			return 0, 0, err
		}
	}
	msgs0 := c.Sim.Stats().Delivered
	c.StabilizeAll(6)
	repairMsgs = c.Sim.Stats().Delivered - msgs0

	const victim = "node-3"
	c.Crash(victim)
	c.StabilizeAll(1) // the ring suspects the victim, so writes route around it
	for i := writes; i < writes+writes/10; i++ {
		if err := put(i); err != nil {
			return 0, 0, err
		}
	}
	c.Restart(victim)
	n := c.NodeByName(victim)
	if _, err := n.CatchUp(); err != nil {
		return 0, 0, fmt.Errorf("bench: catch-up k=%d: %w", k, err)
	}
	return repairMsgs, n.Stats().Replication.SyncRecords, c.Err()
}

// FormatReplication renders the replication-cost table.
func FormatReplication(rows []ReplicationResult) string {
	s := fmt.Sprintf("%-3s %8s %14s %14s %14s %14s %16s %16s\n",
		"K", "writes", "write-msgs/op", "write-vt/op", "read-msgs/op", "read-vt/op", "failover-msgs/op", "failover-vt/op")
	for _, r := range rows {
		s += fmt.Sprintf("%-3d %8d %14.2f %14s %14.2f %14s %16.2f %16s\n",
			r.Factor, r.Writes, r.WriteMsgsPerOp, r.WriteVirtualPerOp, r.ReadMsgsPerOp, r.ReadVirtualPerOp,
			r.FailoverMsgsPerOp, r.FailoverVirtualPerOp)
	}
	return s
}
