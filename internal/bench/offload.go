package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"nakika/internal/cluster"
	"nakika/internal/core"
	"nakika/internal/state"
)

// OffloadResult reports the load-aware offload + hedged-read experiment:
// a 16-node simulated ring, zipf-skewed traffic at one ingress node, and a
// hedged-read phase under one slow replica. Every metric derives from the
// simulated network's virtual clock and the nodes' deterministic counters,
// so CI gates them with the same >20% regression threshold as the
// replication costs.
type OffloadResult struct {
	// Nodes/Sites/Requests size the flash-crowd phase; Threshold is the
	// offload trigger.
	Nodes     int
	Sites     int
	Requests  int
	Threshold float64
	// SpreadMaxOverMean is max per-node executed requests over the cluster
	// mean with offload on (1.0 = perfectly even; the acceptance bound is
	// 2.0). Lower is better.
	SpreadMaxOverMean float64
	// IngressShareNoOffload is the same ratio with offload disabled —
	// archived for contrast (it sits at Nodes, everything on the ingress).
	IngressShareNoOffload float64
	// OffloadedPct is the share of requests executed away from the ingress.
	OffloadedPct float64
	// RequestP99Virtual is the p99 virtual time per request during the
	// burst. Lower is better.
	RequestP99Virtual time.Duration
	// HedgedReadP99Virtual / UnhedgedReadP99Virtual are the p99 virtual
	// read latencies with one slow replica, hedging on and off. The
	// hedged number is gated; the unhedged one is the archived baseline.
	HedgedReadP99Virtual   time.Duration
	UnhedgedReadP99Virtual time.Duration
}

// Scenario shape shared with the cluster acceptance test (fixed seed: the
// bench is a trajectory, the seed sweep lives in the nightly soak).
const (
	offBenchNodes     = 16
	offBenchSites     = 32
	offBenchRequests  = 1200
	offBenchThreshold = 2.0
	offBenchHalfLife  = 400 * time.Millisecond
	offBenchHedge     = 3 * time.Millisecond
	offBenchSlow      = 25 * time.Millisecond
	offBenchSeed      = 7
	offBenchSite      = "bench-off.example.org"
)

func offBenchURL(site uint64, page int) string {
	return fmt.Sprintf("http://site-%02d.example.org/page-%d", site, page)
}

func offBenchOrigin() *cluster.CountingOrigin {
	origin := cluster.NewCountingOrigin()
	for s := 0; s < offBenchSites; s++ {
		for p := 0; p < 4; p++ {
			origin.AddPage(offBenchURL(uint64(s), p), fmt.Sprintf("site-%02d page-%d %s", s, p, strings.Repeat("b", 256)), 3600)
		}
	}
	return origin
}

func offBenchCluster(threshold float64, hedge time.Duration) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Config{
		N:                offBenchNodes,
		Seed:             offBenchSeed,
		Latency:          time.Millisecond,
		OffloadThreshold: threshold,
		HedgeAfter:       hedge,
		LoadHalfLife:     offBenchHalfLife,
		// The walls the committed figures were measured with; the origin
		// answers 404 for both.
		Mutate: func(_ int, cfg *core.Config) {
			cfg.ClientWallURL = "http://nakika.net/clientwall.js"
			cfg.ServerWallURL = "http://nakika.net/serverwall.js"
		},
	}, offBenchOrigin())
	if err != nil {
		return nil, err
	}
	c.StabilizeAll(4)
	return c, nil
}

// driveBurst runs the zipf burst at the ingress and returns the per-request
// virtual latencies.
func driveBurst(c *cluster.Cluster, ingress string) ([]time.Duration, error) {
	rnd := rand.New(rand.NewSource(offBenchSeed*31 + 7))
	zipf := rand.NewZipf(rnd, 1.1, 1, offBenchSites-1)
	pageRnd := rand.New(rand.NewSource(offBenchSeed*17 + 3))
	lats := make([]time.Duration, 0, offBenchRequests)
	for i := 0; i < offBenchRequests; i++ {
		url := offBenchURL(zipf.Uint64(), int(pageRnd.Int63()%4))
		t0 := c.Sim.Now()
		resp, err := c.Handle(ingress, url)
		if err != nil {
			return nil, fmt.Errorf("bench: offload request %d: %w", i, err)
		}
		if resp.Status != 200 {
			return nil, fmt.Errorf("bench: offload request %d: status %d", i, resp.Status)
		}
		lats = append(lats, c.Sim.Now()-t0)
	}
	return lats, nil
}

// benchPercentile returns the p-th percentile of the samples.
func benchPercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// measureHedgePhase writes a key burst, slows one owner's every edge, and
// reads its keys back repeatedly, returning the p99 virtual read latency.
func measureHedgePhase(c *cluster.Cluster, ingress string) (time.Duration, error) {
	const keys = 40
	key := func(i int) string { return fmt.Sprintf("hot-%03d", i) }
	for i := 0; i < keys; i++ {
		if err := c.NodeByName(ingress).StatePut(offBenchSite, key(i), fmt.Sprintf("v-%03d", i)); err != nil {
			return 0, fmt.Errorf("bench: hedge write %d: %w", i, err)
		}
	}
	victim := ""
	var victimKeys []string
	for i := 0; i < keys; i++ {
		owner := c.Ring.Successor(state.ReplicaKey(offBenchSite, key(i))).Name
		if victim == "" && owner != ingress {
			victim = owner
		}
		if owner == victim {
			victimKeys = append(victimKeys, key(i))
		}
	}
	if victim == "" {
		return 0, fmt.Errorf("bench: no victim owner for hedge phase")
	}
	for _, name := range c.Names() {
		if name != victim {
			c.Sim.SetLatency(name, victim, offBenchSlow)
			c.Sim.SetLatency(victim, name, offBenchSlow)
		}
	}
	var lats []time.Duration
	for r := 0; r < 8; r++ {
		for _, k := range victimKeys {
			t0 := c.Sim.Now()
			if _, ok := c.NodeByName(ingress).StateGet(offBenchSite, k); !ok {
				return 0, fmt.Errorf("bench: hedge read of %s lost", k)
			}
			lats = append(lats, c.Sim.Now()-t0)
		}
	}
	return benchPercentile(lats, 0.99), nil
}

// RunOffload measures the offload + hedging experiment.
func RunOffload() (OffloadResult, error) {
	ingress := fmt.Sprintf("node-%d", offBenchSeed%offBenchNodes)
	res := OffloadResult{
		Nodes:     offBenchNodes,
		Sites:     offBenchSites,
		Requests:  offBenchRequests,
		Threshold: offBenchThreshold,
	}

	// Offload on: spread, offloaded share, request p99, then hedged reads.
	c, err := offBenchCluster(offBenchThreshold, offBenchHedge)
	if err != nil {
		return res, err
	}
	lats, err := driveBurst(c, ingress)
	if err != nil {
		return res, err
	}
	var max, total int64
	for _, name := range c.Names() {
		n := c.NodeByName(name).Stats().Offload.Executed
		if n > max {
			max = n
		}
		total += n
	}
	mean := float64(total) / float64(offBenchNodes)
	res.SpreadMaxOverMean = float64(max) / mean
	ingressExecuted := c.NodeByName(ingress).Stats().Offload.Executed
	res.OffloadedPct = 100 * float64(total-ingressExecuted) / float64(total)
	res.RequestP99Virtual = benchPercentile(lats, 0.99)
	if res.HedgedReadP99Virtual, err = measureHedgePhase(c, ingress); err != nil {
		return res, err
	}

	// Offload and hedging off: the contrast rows.
	base, err := offBenchCluster(0, 0)
	if err != nil {
		return res, err
	}
	if _, err := driveBurst(base, ingress); err != nil {
		return res, err
	}
	var baseMax, baseTotal int64
	for _, name := range base.Names() {
		n := base.NodeByName(name).Stats().Offload.Executed
		if n > baseMax {
			baseMax = n
		}
		baseTotal += n
	}
	res.IngressShareNoOffload = float64(baseMax) / (float64(baseTotal) / float64(offBenchNodes))
	if res.UnhedgedReadP99Virtual, err = measureHedgePhase(base, ingress); err != nil {
		return res, err
	}
	return res, nil
}

// FormatOffload renders the offload experiment rows.
func FormatOffload(r OffloadResult) string {
	return fmt.Sprintf(
		"%d nodes, %d sites, %d zipf requests at one ingress, threshold %.1f\n"+
			"  executed spread (max/mean): %8.2f   (no offload: %.2f — everything at the ingress)\n"+
			"  offloaded away from ingress: %7.1f%%\n"+
			"  request p99 (virtual):      %8s\n"+
			"  read p99, 1 slow replica:   %8s hedged   %8s unhedged\n",
		r.Nodes, r.Sites, r.Requests, r.Threshold,
		r.SpreadMaxOverMean, r.IngressShareNoOffload,
		r.OffloadedPct,
		r.RequestP99Virtual,
		r.HedgedReadP99Virtual, r.UnhedgedReadP99Virtual)
}
