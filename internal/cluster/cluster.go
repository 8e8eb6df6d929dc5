// Package cluster is a deterministic fault-injection harness for whole
// clusters of Na Kika edge nodes: it boots N nodes that communicate over
// the simulated transport, runs scripted fault schedules (partitions,
// crashes, latency and loss changes) at virtual times, and checks
// distributed invariants — lookup convergence after churn, at-most-one
// origin fetch per contested key, no lost cooperative-cache publishes after
// a partition heals.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// Config sizes and seeds a simulated cluster.
type Config struct {
	// N is the number of nodes (named node-0..node-N-1).
	N int
	// Seed drives the simulated network's fault randomness.
	Seed int64
	// Latency is the default one-way message latency; zero means 1ms.
	Latency time.Duration
	// Regions are assigned round-robin; empty means three default regions.
	Regions []string
	// Persist gives every node a persistent data directory — an in-memory
	// store.FS keyed by node name, so the harness stays hermetic and
	// deterministic — that survives crash/restart: a crashed node comes
	// back with its hard state replayed from the log and its disk cache
	// tier intact, instead of empty-handed.
	Persist bool
	// Replication overrides every node's core.Config.ReplicationFactor:
	// zero keeps the node default (successor replication with factor 3)
	// and a positive value sets the factor.
	Replication int
	// OffloadThreshold enables load-aware request offload on every node
	// (core.Config.OffloadThreshold); zero keeps it disabled.
	OffloadThreshold float64
	// HedgeAfter enables hedged replica reads on every node
	// (core.Config.HedgeAfter); zero keeps them disabled.
	HedgeAfter time.Duration
	// LoadHalfLife overrides the load-score decay half-life. The harness
	// always wires core.Config.LoadClock to the simulated network's virtual
	// clock, so load accounting is deterministic under seed.
	LoadHalfLife time.Duration
	// Mutate, when non-nil, adjusts each node's Config before boot.
	Mutate func(i int, cfg *core.Config)
}

// Cluster is a booted set of nodes over one simulated network.
type Cluster struct {
	Sim  *transport.Sim
	Ring *overlay.Ring

	cfg   Config
	names []string
	nodes map[string]*core.Node
	// fss holds each node's data filesystem (Persist mode); keyed by node
	// name, preserved across crash/restart like a real disk.
	fss map[string]*store.MemFS

	errMu sync.Mutex
	errs  []string
	// rounds counts the maintenance rounds this cluster has driven through
	// StabilizeAll. It is deliberately a per-Cluster field, never package
	// state: a process runs many harnesses (repeat-run fingerprints,
	// seed sweeps, interleaved scenarios in one test binary), and a shared
	// counter would make any behaviour derived from it depend on which
	// tests ran first. TestStabilizeRoundsIsolatedAcrossHarnesses pins this.
	rounds int64
	// bundles are the named script bundles the fault DSL's deploy directive
	// references; pendingDeploys are deploy directives recorded inside the
	// event loop (where sending messages is forbidden) awaiting execution
	// from StabilizeAll.
	bundles        map[string]string
	pendingDeploys []pendingDeploy
}

// pendingDeploy is one DSL deploy directive awaiting execution.
type pendingDeploy struct {
	node, site, bundle string
}

// catchUpStallRounds is how many maintenance rounds a node may spend
// failing its catch-up pull before the harness reports it through Err.
const catchUpStallRounds = 64

// New boots the cluster with every node proxying for origin.
func New(cfg Config, origin core.Fetcher) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	sim := transport.NewSim(transport.SimConfig{Seed: cfg.Seed, DefaultLatency: cfg.Latency})
	ring := overlay.NewRing()
	ring.Transport = sim
	c := &Cluster{Sim: sim, Ring: ring, cfg: cfg, nodes: make(map[string]*core.Node), fss: make(map[string]*store.MemFS)}
	for i := 0; i < cfg.N; i++ {
		if _, err := c.boot(i, origin); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// boot builds and registers node i.
func (c *Cluster) boot(i int, origin core.Fetcher) (*core.Node, error) {
	regions := c.cfg.Regions
	if len(regions) == 0 {
		regions = []string{"us-east", "eu-west", "ap-south"}
	}
	name := fmt.Sprintf("node-%d", i)
	nodeCfg := core.Config{
		Name:              name,
		Region:            regions[i%len(regions)],
		Upstream:          origin,
		Ring:              c.Ring,
		ReplicationFactor: c.cfg.Replication,
		OffloadThreshold:  c.cfg.OffloadThreshold,
		HedgeAfter:        c.cfg.HedgeAfter,
		LoadHalfLife:      c.cfg.LoadHalfLife,
		LoadClock:         c.Sim.Now,
	}
	if c.cfg.Persist {
		fs := store.NewMemFS()
		c.fss[name] = fs
		nodeCfg.DataFS = fs
	}
	if c.cfg.Mutate != nil {
		c.cfg.Mutate(i, &nodeCfg)
	}
	n, err := core.NewNode(nodeCfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: boot %s: %w", name, err)
	}
	c.names = append(c.names, name)
	c.nodes[name] = n
	return n, nil
}

// AddNode boots one additional node (continuing the node-<i> sequence)
// onto the running cluster's ring and returns its name. Like any new node
// it owes a catch-up, which its first maintenance round in StabilizeAll
// runs: it streams the key range it now owns from its successor. The
// origin must be the same fetcher the cluster was built with (it is
// per-node configuration).
func (c *Cluster) AddNode(origin core.Fetcher) (string, error) {
	n, err := c.boot(len(c.names), origin)
	if err != nil {
		return "", err
	}
	return n.Name(), nil
}

// Names returns the node names in boot order.
func (c *Cluster) Names() []string { return append([]string(nil), c.names...) }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *core.Node { return c.nodes[c.names[i]] }

// NodeByName returns the named node, or nil.
func (c *Cluster) NodeByName(name string) *core.Node { return c.nodes[name] }

// Handle runs one GET through the named node.
func (c *Cluster) Handle(node, url string) (*httpmsg.Response, error) {
	n := c.nodes[node]
	if n == nil {
		return nil, fmt.Errorf("cluster: unknown node %s", node)
	}
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	return resp, err
}

// Partition splits the network into groups (unlisted nodes form their own
// side); Heal removes it.
func (c *Cluster) Partition(groups ...[]string) { c.Sim.Partition(groups...) }

// Heal removes every partition.
func (c *Cluster) Heal() { c.Sim.Heal() }

// Crash makes a node unreachable and kills its process state: soft state
// (overlay index slice, memory cache) is discarded and the storage engine
// is abandoned without flushing. In Persist mode the node's data
// filesystem — like a real disk — keeps every byte already written.
func (c *Cluster) Crash(name string) {
	c.Sim.Crash(name)
	if n := c.nodes[name]; n != nil {
		n.Crash()
	}
}

// Restart brings a crashed node back through Node.Recover. In Persist mode
// it recovers from its preserved data directory (hard state replayed from
// the log, disk cache rescanned); otherwise its engines reopen on a fresh
// in-memory filesystem and it comes back empty-handed. A crashed node
// refuses writes until Restart, in both modes. Either way Recover leaves a
// catch-up pending, which the node's next maintenance round runs: it
// streams the key range it owns back from its successors. (Restart may run
// from inside the simulated network's event loop, where sending messages is
// forbidden, so the pull itself waits for StabilizeAll.)
func (c *Cluster) Restart(name string) {
	c.Sim.Restart(name)
	if n := c.nodes[name]; n != nil {
		if err := n.Recover(); err != nil {
			c.fail("restart %s: %v", name, err)
		}
	}
}

// fail records a harness error for Err.
func (c *Cluster) fail(format string, args ...any) {
	c.errMu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.errMu.Unlock()
}

// Err reports failures from fault actions (a restart whose recovery
// failed); tests check it after driving a schedule.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("cluster: %s", strings.Join(c.errs, "; "))
}

// DataFS returns the named node's preserved data filesystem (nil outside
// Persist mode).
func (c *Cluster) DataFS(name string) *store.MemFS { return c.fss[name] }

// Live reports whether the node is currently not crashed.
func (c *Cluster) Live(name string) bool { return !c.Sim.Crashed(name) }

// StabilizeAll runs maintenance rounds. Each round executes the fault
// DSL's deferred deploys, then runs one core.Node.Maintain — the round
// nakikad runs every 5 s — on every live node in name order. A crashed
// process runs no maintenance: its pings would fail and it would come back
// suspecting every member. A node whose catch-up has failed
// catchUpStallRounds pulls is reported through Err.
func (c *Cluster) StabilizeAll(rounds int) {
	for i := 0; i < rounds; i++ {
		c.errMu.Lock()
		c.rounds++
		c.errMu.Unlock()
		c.deployPending()
		for _, name := range c.Ring.Nodes() {
			n := c.nodes[name]
			if n == nil || !c.Live(name) {
				continue
			}
			n.Maintain()
			if st := n.Stats().CatchUp; st.Pending && st.Attempts == catchUpStallRounds {
				c.fail("catch-up %s stalled for %d rounds", name, st.Attempts)
			}
		}
	}
}

// DefineBundle registers a named script bundle that deploy directives (the
// fault DSL's "at <t> deploy <node> <site> <bundle>") and Deploy refer to.
func (c *Cluster) DefineBundle(name, script string) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.bundles == nil {
		c.bundles = make(map[string]string)
	}
	c.bundles[name] = script
}

// Deploy publishes the named bundle for site through the given node,
// returning the generation assigned. It sends replication RPCs, so tests
// call it between traffic phases, never from inside the event loop (the
// DSL's deploy directive defers here via StabilizeAll).
func (c *Cluster) Deploy(node, site, bundle string) (uint64, error) {
	n := c.nodes[node]
	if n == nil {
		return 0, fmt.Errorf("cluster: unknown node %s", node)
	}
	c.errMu.Lock()
	script, ok := c.bundles[bundle]
	c.errMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cluster: unknown bundle %q", bundle)
	}
	return n.Deploy(site, script, "bundle:"+bundle)
}

// deployPending executes deploy directives recorded by the fault DSL.
// Failures land in Err: a scheduled deploy that silently never happened
// would invalidate whatever invariant the scenario was checking.
func (c *Cluster) deployPending() {
	c.errMu.Lock()
	pending := c.pendingDeploys
	c.pendingDeploys = nil
	c.errMu.Unlock()
	for _, p := range pending {
		if !c.Live(p.node) || c.nodes[p.node] == nil {
			c.fail("deploy %s via %s: node unavailable", p.site, p.node)
			continue
		}
		if _, err := c.Deploy(p.node, p.site, p.bundle); err != nil {
			c.fail("deploy %s via %s: %v", p.site, p.node, err)
		}
	}
}

// CheckDeployConvergence verifies every live node's pipeline serves
// wantGen for site; it returns the disagreements.
func (c *Cluster) CheckDeployConvergence(site string, wantGen uint64) error {
	var bad []string
	for _, name := range c.names {
		if !c.Live(name) {
			continue
		}
		if got := c.nodes[name].AppliedGeneration(site); got != wantGen {
			bad = append(bad, fmt.Sprintf("%s serves gen %d for %s, want %d", name, got, site, wantGen))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cluster: deployment not converged:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// Rounds returns how many maintenance rounds this cluster has driven.
// The counter is per-Cluster (see the field comment): two harnesses in the
// same process never share it, so scenario outcomes cannot depend on which
// tests ran earlier.
func (c *Cluster) Rounds() int64 {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.rounds
}

// StateHolders returns the names of live nodes whose local store holds a
// live (non-tombstone) copy of the replicated record, sorted — the
// harness's replica-count probe.
func (c *Cluster) StateHolders(site, key string) []string {
	var out []string
	for _, name := range c.names {
		if !c.Live(name) {
			continue
		}
		if _, _, deleted, ok := c.nodes[name].LocalStateRecord(site, key); ok && !deleted {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Owner returns the membership ground-truth owner of the cache key for a
// GET of url.
func (c *Cluster) Owner(url string) string {
	return c.Ring.Successor(httpmsg.MustRequest("GET", url).CacheKey()).Name
}

// CheckLookupConvergence verifies that every live node resolves each key's
// owner to the membership ground truth; it returns the disagreements.
func (c *Cluster) CheckLookupConvergence(urls ...string) error {
	var bad []string
	for _, url := range urls {
		key := httpmsg.MustRequest("GET", url).CacheKey()
		want := c.Ring.Successor(key).Name
		for _, name := range c.names {
			if !c.Live(name) {
				continue
			}
			got, err := c.nodes[name].Overlay().LookupName(key)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: lookup %q: %v", name, url, err))
				continue
			}
			if got != want {
				bad = append(bad, fmt.Sprintf("%s resolves %q to %s, ground truth %s", name, url, got, want))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cluster: lookup not converged:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// Holders asks the overlay (from the given node) who holds cached copies
// of url, sorted.
func (c *Cluster) Holders(node, url string) []string {
	key := httpmsg.MustRequest("GET", url).CacheKey()
	holders := c.nodes[node].Overlay().Locate(key)
	sort.Strings(holders)
	return holders
}

// ---------------------------------------------------------------------------
// Counting origin
// ---------------------------------------------------------------------------

// CountingOrigin is an in-memory origin that counts hits per URL and can
// gate a URL so a fetch blocks mid-flight (for stampede scenarios: the
// harness injects a fault while the leader's origin fetch is held open).
type CountingOrigin struct {
	mu    sync.Mutex
	pages map[string]*httpmsg.Response
	hits  map[string]int
	gates map[string]chan struct{}
	// waiting counts fetchers currently blocked on a gate, per URL.
	waiting map[string]int
}

// NewCountingOrigin returns an empty origin.
func NewCountingOrigin() *CountingOrigin {
	return &CountingOrigin{
		pages:   make(map[string]*httpmsg.Response),
		hits:    make(map[string]int),
		gates:   make(map[string]chan struct{}),
		waiting: make(map[string]int),
	}
}

// AddPage serves body at url with the given freshness lifetime.
func (o *CountingOrigin) AddPage(url, body string, maxAge int) {
	r := httpmsg.NewHTMLResponse(200, body)
	if maxAge > 0 {
		r.SetMaxAge(maxAge)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pages[url] = r
}

// Gate installs a gate on url: fetches block until Release.
func (o *CountingOrigin) Gate(url string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gates[url] = make(chan struct{})
}

// Release opens url's gate, letting blocked fetches complete.
func (o *CountingOrigin) Release(url string) {
	o.mu.Lock()
	gate := o.gates[url]
	delete(o.gates, url)
	o.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

// Waiting reports how many fetches are currently blocked on url's gate.
func (o *CountingOrigin) Waiting(url string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.waiting[url]
}

// Hits returns the fetch count for url.
func (o *CountingOrigin) Hits(url string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits[url]
}

// Do implements core.Fetcher.
func (o *CountingOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	url := req.URL.String()
	o.mu.Lock()
	o.hits[url]++
	gate := o.gates[url]
	if gate != nil {
		o.waiting[url]++
	}
	page := o.pages[url]
	o.mu.Unlock()
	if gate != nil {
		<-gate
		o.mu.Lock()
		o.waiting[url]--
		o.mu.Unlock()
	}
	if page == nil {
		return httpmsg.NewTextResponse(404, "not found"), nil
	}
	return page.Clone(), nil
}
