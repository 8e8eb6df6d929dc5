package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/cluster/explore"
	"nakika/internal/core"
	"nakika/internal/state"
	"nakika/internal/transport"
)

// newSeededRand returns a deterministic source for scenario shaping.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// newZipf returns a seed-stable zipf sampler over [0, imax].
func newZipf(r *rand.Rand, s float64, imax uint64) func() uint64 {
	z := rand.NewZipf(r, s, 1, imax)
	return z.Uint64
}

// The offload acceptance scenario: a 16-node ring with load-aware offload
// and hedged reads enabled, zipf-skewed traffic all arriving at one
// ingress node. Offload must spread execution so no node
// runs more than twice the cluster-mean request count, and hedged reads
// must bound the p99 virtual-clock read latency under one slow replica.
// Everything runs on the simulated transport's virtual clock, so repeat
// runs fingerprint identically.

const (
	offSites        = 32
	offPagesPerSite = 4
	offRequests     = 1200
	offNodes        = 16
	offThreshold    = 2.0
	offHalfLife     = 400 * time.Millisecond
	offHedgeAfter   = 3 * time.Millisecond
	offSlowLatency  = 25 * time.Millisecond
)

func offURL(site uint64, page int) string {
	return fmt.Sprintf("http://site-%02d.example.org/page-%d", site, page)
}

// offOrigin builds the origin serving every site's pages.
func offOrigin() *CountingOrigin {
	origin := NewCountingOrigin()
	for s := 0; s < offSites; s++ {
		for p := 0; p < offPagesPerSite; p++ {
			origin.AddPage(offURL(uint64(s), p), fmt.Sprintf("body of site-%02d page-%d %s", s, p, strings.Repeat("x", 256)), 3600)
		}
	}
	return origin
}

// bootOffload builds a converged offload-enabled cluster.
func bootOffload(t *testing.T, seed int64, threshold float64, hedge time.Duration) *Cluster {
	t.Helper()
	c, err := New(Config{
		N:                offNodes,
		Seed:             seed,
		Latency:          time.Millisecond,
		OffloadThreshold: threshold,
		HedgeAfter:       hedge,
		LoadHalfLife:     offHalfLife,
	}, offOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	return c
}

// zipfSite derives the deterministic zipf-skewed site sequence for a seed.
// math/rand's Zipf is seed-stable, so the traffic pattern is part of the
// scenario fingerprint.
func zipfSites(seed int64, n int) []uint64 {
	rnd := newSeededRand(seed*31 + 7)
	z := newZipf(rnd, 1.1, offSites-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z()
	}
	return out
}

// runOffloadScenario drives the acceptance scenario and returns its
// fingerprint.
func runOffloadScenario(t *testing.T, seed int64) string {
	t.Helper()
	c := bootOffload(t, seed, offThreshold, offHedgeAfter)
	ingress := fmt.Sprintf("node-%d", ((seed%offNodes)+offNodes)%offNodes)

	// Phase A: the flash crowd — zipf-skewed traffic, all at one ingress.
	sites := zipfSites(seed, offRequests)
	pageRnd := newSeededRand(seed*17 + 3)
	var reqVirtual []time.Duration
	for i, s := range sites {
		page := int(pageRnd.Int63() % offPagesPerSite)
		t0 := c.Sim.Now()
		resp, err := c.Handle(ingress, offURL(s, page))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
		reqVirtual = append(reqVirtual, c.Sim.Now()-t0)
	}

	// Offload spread invariant: no node executed more than 2x the cluster
	// mean.
	var counts []int64
	var total int64
	for _, name := range c.Names() {
		n := c.NodeByName(name).Stats().Offload.Executed
		counts = append(counts, n)
		total += n
	}
	if total != offRequests {
		t.Fatalf("executed %d requests in total, want %d (requests lost or double-counted)", total, offRequests)
	}
	mean := float64(total) / float64(offNodes)
	for i, n := range counts {
		if float64(n) > 2*mean {
			t.Fatalf("node-%d executed %d requests, over 2x the mean %.1f (spread %v)", i, n, mean, counts)
		}
	}
	ingressStats := c.NodeByName(ingress).Stats().Offload
	if ingressStats.ForwardedOut == 0 {
		t.Fatal("ingress never offloaded despite the flash crowd")
	}

	// Cross-node tracing: an offloaded request leaves a sample at the
	// ingress naming the executing peer, and the peer's own sample of the
	// execution carries the same trace id — one trace across the forward.
	linked := false
	for _, s := range c.NodeByName(ingress).Traces().Snapshot() {
		if !s.Offloaded || s.OffloadPeer == "" || s.TraceID == 0 {
			continue
		}
		peer := c.NodeByName(s.OffloadPeer)
		if peer == nil {
			continue
		}
		for _, ps := range peer.Traces().Snapshot() {
			if ps.TraceID == s.TraceID {
				linked = true
				break
			}
		}
		if linked {
			break
		}
	}
	if !linked {
		t.Fatal("no offloaded request shared its trace id with the executing peer's sample")
	}

	// Phase B: hedged reads under one slow replica. Write a burst of keys
	// through the ingress, slow every edge of one owner down, and read the
	// keys it owns back repeatedly: after the first slow round trip trains
	// the RTT EWMA past the hedge budget, reads divert to the next replica
	// and the p99 virtual latency stays bounded.
	const hedgeKeys = 40
	hkey := func(i int) string { return fmt.Sprintf("hot-%03d", i) }
	for i := 0; i < hedgeKeys; i++ {
		if err := c.NodeByName(ingress).StatePut(repSite, hkey(i), fmt.Sprintf("v-%03d", i)); err != nil {
			t.Fatalf("hedge write %d: %v", i, err)
		}
	}
	victim := ""
	var victimKeys []string
	for i := 0; i < hedgeKeys; i++ {
		owner := c.Ring.Successor(state.ReplicaKey(repSite, hkey(i))).Name
		if victim == "" && owner != ingress {
			victim = owner
		}
		if owner == victim {
			victimKeys = append(victimKeys, hkey(i))
		}
	}
	if victim == "" || len(victimKeys) == 0 {
		t.Fatal("no victim owner found for the hedge phase")
	}
	for _, name := range c.Names() {
		if name == victim {
			continue
		}
		c.Sim.SetLatency(name, victim, offSlowLatency)
		c.Sim.SetLatency(victim, name, offSlowLatency)
	}
	readLats := measureReads(t, c, ingress, victimKeys, 8)
	p99 := percentile(readLats, 0.99)
	hstats := c.NodeByName(ingress).Stats().Offload
	if hstats.HedgedReads == 0 {
		t.Fatal("no read was hedged despite the slow owner")
	}
	// The slow owner's unhedged round trip costs 2x offSlowLatency of
	// virtual time; hedging must keep the p99 well under that.
	if p99 >= 2*offSlowLatency {
		t.Fatalf("hedged read p99 = %v, not bounded below the slow round trip %v", p99, 2*offSlowLatency)
	}

	// The scenario asserts on metrics and latencies; a fault action that
	// failed quietly (stalled catch-up, unexecuted directive) would make
	// those assertions vacuous, so surface harness errors before
	// fingerprinting.
	if err := c.Err(); err != nil {
		t.Fatalf("cluster harness reported errors: %v", err)
	}

	// Fingerprint every deterministic observable.
	var fp strings.Builder
	fmt.Fprintf(&fp, "ingress=%s victim=%s reqP99=%d readP99=%d", ingress, victim, percentile(reqVirtual, 0.99), p99)
	for i, name := range c.Names() {
		st := c.NodeByName(name).Stats().Offload
		fmt.Fprintf(&fp, " %s:exec=%d,fwd=%d,recv=%d,fb=%d,cap=%d,hedge=%d/%d",
			name, counts[i], st.ForwardedOut, st.ReceivedIn, st.Fallbacks, st.DepthCapHits, st.HedgedReads, st.HedgeHits)
	}
	fmt.Fprintf(&fp, " delivered=%d", c.Sim.Stats().Delivered)
	return fp.String()
}

// measureReads reads every key `rounds` times through the node, returning
// each read's virtual-clock latency.
func measureReads(t *testing.T, c *Cluster, node string, keys []string, rounds int) []time.Duration {
	t.Helper()
	var lats []time.Duration
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			t0 := c.Sim.Now()
			if _, ok := c.NodeByName(node).StateGet(repSite, k); !ok {
				t.Fatalf("read of %s lost", k)
			}
			lats = append(lats, c.Sim.Now()-t0)
		}
	}
	return lats
}

// percentile returns the p-th percentile (0..1] of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
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

// TestOffloadHedgeDeterministic is the offload acceptance test: the
// flash-crowd + slow-replica scenario holds its invariants and produces an
// identical fingerprint on repeat runs, across 5 seeds.
func TestOffloadHedgeDeterministic(t *testing.T) {
	for _, seed := range []int64{41, 42, 43, 44, 45} {
		seed := explore.Seed(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			first := runOffloadScenario(t, seed)
			if again := runOffloadScenario(t, seed); again != first {
				t.Fatalf("seed %d diverged:\n%s\nvs\n%s", seed, first, again)
			}
		})
	}
}

// TestHedgingBeatsSlowOwnerBaseline compares the hedged p99 against an
// identically-seeded cluster with hedging disabled: the baseline pays the
// slow owner's round trip at p99, the hedged cluster does not.
func TestHedgingBeatsSlowOwnerBaseline(t *testing.T) {
	seed := explore.Seed(46)
	run := func(hedge time.Duration) time.Duration {
		c := bootOffload(t, seed, 0, hedge) // offload off: isolate the read path
		ingress := "node-0"
		const keys = 30
		for i := 0; i < keys; i++ {
			if err := c.NodeByName(ingress).StatePut(repSite, fmt.Sprintf("base-%02d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		victim := ""
		var victimKeys []string
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("base-%02d", i)
			owner := c.Ring.Successor(state.ReplicaKey(repSite, k)).Name
			if victim == "" && owner != ingress {
				victim = owner
			}
			if owner == victim {
				victimKeys = append(victimKeys, k)
			}
		}
		for _, name := range c.Names() {
			if name != victim {
				c.Sim.SetLatency(name, victim, offSlowLatency)
				c.Sim.SetLatency(victim, name, offSlowLatency)
			}
		}
		return percentile(measureReads(t, c, ingress, victimKeys, 8), 0.99)
	}
	unhedged := run(0)
	hedged := run(offHedgeAfter)
	if unhedged < 2*offSlowLatency {
		t.Fatalf("baseline p99 = %v, expected to pay the slow owner's %v round trip", unhedged, 2*offSlowLatency)
	}
	if hedged*5 > unhedged {
		t.Fatalf("hedged p99 = %v, not well below the unhedged baseline %v", hedged, unhedged)
	}
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

// TestOffloadPartitionFallsBackLocally: an over-threshold ingress whose
// forwards cannot be delivered executes every request locally — a
// partition costs a request at most one failed hop, never a loop or a
// lost response.
func TestOffloadPartitionFallsBackLocally(t *testing.T) {
	seed := explore.Seed(51)
	c, err := New(Config{
		N: 4, Seed: seed, Latency: time.Millisecond,
		OffloadThreshold: 0.5, LoadHalfLife: offHalfLife,
	}, offOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	ingress := "node-0"
	c.Partition([]string{ingress})
	// Drive a burst: the first request heats the node past the threshold,
	// the rest attempt to shed, cannot deliver, and fall back locally.
	for i := 0; i < 12; i++ {
		resp, err := c.Handle(ingress, offURL(uint64(i%offSites), 0))
		if err != nil || resp.Status != 200 {
			t.Fatalf("partitioned request %d = (%v, %v), want local 200", i, resp, err)
		}
		if got := resp.Stamp.Get("X-Na-Kika-Node"); got != ingress {
			t.Fatalf("request %d executed on %s, want local %s", i, got, ingress)
		}
	}
	st := c.NodeByName(ingress).Stats().Offload
	if got := c.NodeByName(ingress).LoadScore(); got <= 0.5 {
		t.Fatalf("ingress load %v never crossed the threshold; scenario did not exercise shedding", got)
	}
	if st.ForwardedOut != 0 {
		t.Fatalf("requests counted as forwarded despite the partition: %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("no local fallback recorded under partition: %+v", st)
	}
	if st.Executed != 12 {
		t.Fatalf("executed %d of 12 requests locally", st.Executed)
	}
}

// TestOffloadDepthCapExecutesLocally: with every node over threshold and
// peers' loads unknown (so every hop looks attractive), a request chains
// through forwards until the depth cap pins it to local execution — the
// loop bound.
func TestOffloadDepthCapExecutesLocally(t *testing.T) {
	seed := explore.Seed(52)
	c, err := New(Config{
		N: 6, Seed: seed, Latency: time.Millisecond,
		OffloadThreshold: 0.25, LoadHalfLife: offHalfLife,
	}, offOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	// Drive traffic at every node so the whole cluster runs hot; the
	// forward chains this produces must all terminate at the depth cap.
	for round := 0; round < 6; round++ {
		for i := 0; i < 6; i++ {
			node := fmt.Sprintf("node-%d", i)
			resp, err := c.Handle(node, offURL(uint64((round*6+i)%offSites), 0))
			if err != nil || resp.Status != 200 {
				t.Fatalf("request = (%v, %v), want 200", resp, err)
			}
		}
	}
	var caps, fwd, executed int64
	for _, name := range c.Names() {
		st := c.NodeByName(name).Stats().Offload
		caps += st.DepthCapHits
		fwd += st.ForwardedOut
		executed += st.Executed
	}
	if executed != 36 {
		t.Fatalf("executed %d of 36 requests: a request was lost or duplicated", executed)
	}
	if fwd == 0 {
		t.Fatal("universally hot cluster never forwarded (scenario did not exercise the chain)")
	}
	if caps == 0 {
		t.Fatal("no depth-cap hit recorded: the forward chain was not bounded by the cap")
	}
}

// TestHedgeFiresExactlyOnce pins the hedge trigger around the budget
// boundary: reads whose owner EWMA sits just under the budget do not
// hedge (they pay the slow owner and train the estimate), and the first
// read after the EWMA crosses the budget hedges exactly once — one extra
// RPC to the next replica, served by it, not a storm.
func TestHedgeFiresExactlyOnce(t *testing.T) {
	seed := explore.Seed(53)
	// The write path trains the owner's EWMA to ~6ms of virtual time (2ms
	// transit + two synchronous 2ms replica pushes inside the call), so an
	// 8ms budget starts just above the estimate.
	const budget = 8 * time.Millisecond
	ingress := "node-0"
	// Record the ingress's outgoing RPCs so the test can prove the slow
	// owner was never consulted on the hedged read.
	var rec *recordingTransport
	c, err := New(Config{
		N: offNodes, Seed: seed, Latency: time.Millisecond,
		HedgeAfter: budget, LoadHalfLife: offHalfLife,
		Mutate: func(i int, cfg *core.Config) {
			if i == 0 {
				rec = &recordingTransport{inner: cfg.Ring.Transport}
				cfg.Transport = rec
			}
		},
	}, offOrigin())
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	key, victim := "", ""
	for i := 0; i < 64 && key == ""; i++ {
		k := fmt.Sprintf("once-%02d", i)
		if o := c.Ring.Successor(state.ReplicaKey(repSite, k)).Name; o != ingress {
			key, victim = k, o
		}
	}
	if err := c.NodeByName(ingress).StatePut(repSite, key, "v"); err != nil {
		t.Fatal(err)
	}
	// 5ms edges: each slow 10ms read nudges the EWMA up by 30%; it crosses
	// the 8ms budget on the second slow observation, landing just past it.
	for _, name := range c.Names() {
		if name != victim {
			c.Sim.SetLatency(name, victim, 5*time.Millisecond)
			c.Sim.SetLatency(victim, name, 5*time.Millisecond)
		}
	}
	// Training reads: EWMA under budget, both pay the slow owner in full.
	var slowRead time.Duration
	for i := 0; i < 2; i++ {
		t0 := c.Sim.Now()
		if _, ok := c.NodeByName(ingress).StateGet(repSite, key); !ok {
			t.Fatalf("training read %d lost", i)
		}
		slowRead = c.Sim.Now() - t0
	}
	before := c.NodeByName(ingress).Stats().Offload
	if before.HedgedReads != 0 {
		t.Fatalf("hedge fired before the EWMA crossed the budget: %+v", before)
	}
	victimCalls := rec.countDest(victim)
	t0 := c.Sim.Now()
	if v, ok := c.NodeByName(ingress).StateGet(repSite, key); !ok || v != "v" {
		t.Fatalf("hedged read = (%q, %v)", v, ok)
	}
	elapsed := c.Sim.Now() - t0
	after := c.NodeByName(ingress).Stats().Offload
	if after.HedgedReads != 1 || after.HedgeHits != 1 {
		t.Fatalf("hedge fired %d times with %d hits, want exactly 1/1", after.HedgedReads, after.HedgeHits)
	}
	// The winner was the fast replica: the ingress never issued the losing
	// RPC to the slow owner, and the read came in under the unhedged cost.
	if got := rec.countDest(victim); got != victimCalls {
		t.Fatalf("hedged read still called the slow owner (%d -> %d calls)", victimCalls, got)
	}
	if elapsed >= slowRead {
		t.Fatalf("hedged read took %v, not under the unhedged read's %v", elapsed, slowRead)
	}
}

// recordingTransport wraps the simulated transport and counts outgoing
// message types, so tests can prove a whole subsystem stayed silent.
type recordingTransport struct {
	inner transport.Transport
	mu    sync.Mutex
	types map[string]int
	dests map[string]int
}

func (r *recordingTransport) Register(name string, h transport.Handler) { r.inner.Register(name, h) }
func (r *recordingTransport) Unregister(name string)                    { r.inner.Unregister(name) }
func (r *recordingTransport) Call(from, to string, msg transport.Message) (transport.Message, error) {
	r.mu.Lock()
	if r.types == nil {
		r.types = make(map[string]int)
		r.dests = make(map[string]int)
	}
	r.types[msg.Type]++
	r.dests[to]++
	r.mu.Unlock()
	return r.inner.Call(from, to, msg)
}

func (r *recordingTransport) countDest(to string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dests[to]
}

func (r *recordingTransport) count(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for typ, c := range r.types {
		if strings.HasPrefix(typ, prefix) {
			n += c
		}
	}
	return n
}

// TestHedgeRetrainsAfterOwnerRecovers: once a slow owner's RTT estimate
// crosses the budget, the hedge path stops contacting it, so nothing on
// the read path would ever notice it recovering; the maintenance loop's
// RefreshRTTs re-probes exactly those peers, and reads must return to the
// owner after it heals.
func TestHedgeRetrainsAfterOwnerRecovers(t *testing.T) {
	seed := explore.Seed(56)
	c := bootOffload(t, seed, 0, offHedgeAfter)
	ingress := "node-0"
	key, victim := "", ""
	for i := 0; i < 64 && key == ""; i++ {
		k := fmt.Sprintf("heal-%02d", i)
		if o := c.Ring.Successor(state.ReplicaKey(repSite, k)).Name; o != ingress {
			key, victim = k, o
		}
	}
	if err := c.NodeByName(ingress).StatePut(repSite, key, "v"); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Names() {
		if name != victim {
			c.Sim.SetLatency(name, victim, offSlowLatency)
			c.Sim.SetLatency(victim, name, offSlowLatency)
		}
	}
	// Drive reads until they hedge (the first slow read trains the EWMA).
	for i := 0; i < 4; i++ {
		if _, ok := c.NodeByName(ingress).StateGet(repSite, key); !ok {
			t.Fatal("read lost")
		}
	}
	if c.NodeByName(ingress).Stats().Offload.HedgedReads == 0 {
		t.Fatal("reads never hedged around the slow owner")
	}
	// The owner recovers; without a re-probe the estimate would stay
	// pinned above the budget forever on this read-only workload.
	for _, name := range c.Names() {
		if name != victim {
			c.Sim.SetLatency(name, victim, time.Millisecond)
			c.Sim.SetLatency(victim, name, time.Millisecond)
		}
	}
	c.StabilizeAll(2) // maintenance drives RefreshRTTs
	before := c.NodeByName(ingress).Stats().Offload.HedgedReads
	if v, ok := c.NodeByName(ingress).StateGet(repSite, key); !ok || v != "v" {
		t.Fatalf("post-recovery read = (%q, %v)", v, ok)
	}
	if after := c.NodeByName(ingress).Stats().Offload.HedgedReads; after != before {
		t.Fatalf("read still hedged after the owner recovered and maintenance re-probed (hedges %d -> %d)", before, after)
	}
}

// TestOffloadDisabledIsByteIdenticalToSeedBehavior: with -offload-threshold
// 0 the request path must match the pre-offload proxy exactly — every
// response byte-identical to the origin's page, zero "off." messages on
// the wire, zero offload counters, and every request executed at the node
// it arrived at.
func TestOffloadDisabledIsByteIdenticalToSeedBehavior(t *testing.T) {
	seed := explore.Seed(54)
	origin := offOrigin()
	recorders := make(map[int]*recordingTransport)
	c, err := New(Config{
		N: 6, Seed: seed, Latency: time.Millisecond,
		OffloadThreshold: 0, HedgeAfter: 0,
		Mutate: func(i int, cfg *core.Config) {
			rec := &recordingTransport{inner: cfg.Ring.Transport}
			recorders[i] = rec
			cfg.Transport = rec
		},
	}, origin)
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeAll(4)
	for i := 0; i < 120; i++ {
		site, page := uint64(i%offSites), i%offPagesPerSite
		node := fmt.Sprintf("node-%d", i%6)
		resp, err := c.Handle(node, offURL(site, page))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := fmt.Sprintf("body of site-%02d page-%d %s", site, page, strings.Repeat("x", 256))
		if string(resp.Body) != want {
			t.Fatalf("request %d body diverged from origin bytes:\n%q\nvs\n%q", i, resp.Body, want)
		}
	}
	for i := 0; i < 6; i++ {
		if n := recorders[i].count("off."); n != 0 {
			t.Fatalf("node-%d sent %d off.* messages with offload disabled", i, n)
		}
		st := c.Node(i).Stats()
		off := st.Offload
		if off.ForwardedOut != 0 || off.ReceivedIn != 0 || off.Fallbacks != 0 || off.DepthCapHits != 0 || off.HedgedReads != 0 || off.HedgeHits != 0 {
			t.Fatalf("node-%d offload counters nonzero while disabled: %+v", i, off)
		}
		if off.Executed != st.Requests {
			t.Fatalf("node-%d executed %d of %d arrivals: requests moved despite offload being disabled", i, off.Executed, st.Requests)
		}
	}
}

// TestStabilizeRoundsIsolatedAcrossHarnesses is the regression test for
// the harness round counter: it must be per-Cluster state, so reusing or
// interleaving harnesses in one process cannot make scenarios
// order-dependent.
func TestStabilizeRoundsIsolatedAcrossHarnesses(t *testing.T) {
	seed := explore.Seed(55)
	a, err := New(Config{N: 4, Seed: seed}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	a.StabilizeAll(5)
	if got := a.Rounds(); got != 5 {
		t.Fatalf("first harness at %d rounds, want 5", got)
	}
	// A second harness in the same process starts from zero, regardless of
	// what ran before it.
	b, err := New(Config{N: 4, Seed: seed}, NewCountingOrigin())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Rounds(); got != 0 {
		t.Fatalf("fresh harness started at round %d, want 0 (leaked across harnesses)", got)
	}
	b.StabilizeAll(2)
	if got, got2 := a.Rounds(), b.Rounds(); got != 5 || got2 != 2 {
		t.Fatalf("round counters crosstalk: a=%d (want 5), b=%d (want 2)", got, got2)
	}
	// And a full scenario's fingerprint is unaffected by harnesses that ran
	// earlier in the process.
	f1 := runOffloadScenario(t, seed)
	a.StabilizeAll(7) // churn the old harness between runs
	f2 := runOffloadScenario(t, seed)
	if f1 != f2 {
		t.Fatalf("scenario fingerprint depends on prior harness activity:\n%s\nvs\n%s", f1, f2)
	}
}
