// Package cluster is a deterministic fault-injection harness for whole
// clusters of Na Kika edge nodes: it boots N nodes that communicate over
// the simulated transport, runs scripted fault schedules (partitions,
// crashes, latency and loss changes) at virtual times, and checks
// distributed invariants — lookup convergence after churn, at-most-one
// origin fetch per contested key, no lost cooperative-cache publishes after
// a partition heals.
//
// A crash is a process death and a restart is a new process: Crash drops
// the node's *core.Node and revokes its view of its data filesystem, and
// Restart builds the node again with core.NewNode from the same Config.
// Every volatile structure a node holds starts again from its initial
// value, and only the data filesystem survives (the crash model of the
// recoverable-mutual-exclusion literature).
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// Persist gives every node a persistent data directory — a store.MemFS
	// keyed by node name, so the harness stays hermetic and deterministic —
	// that outlives its processes: each incarnation of the node runs on its
	// own revocable view of it, and a restarted node comes back with its
	// hard state replayed from the log and its disk cache and large-object
	// tiers intact, instead of empty-handed.
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
	// always wires core.Config.Clock, the node's one clock, to the simulated
	// network's virtual clock, so load accounting, leases, and cache and
	// index expiry are deterministic under seed.
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
	// mu guards members and their processes: the fault DSL's crashes and
	// restarts run on whichever goroutine advances the virtual clock.
	mu      sync.Mutex
	members map[string]*member

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

// member is one node: the Config every process of it is built from, its
// data filesystem (Persist mode), which outlives its processes as a disk
// does, and the running process with its view of that filesystem and its
// handle on the network (nil while crashed).
type member struct {
	cfg  core.Config
	fs   *store.MemFS
	view *store.MemView
	tr   *procTransport
	node *core.Node
}

// procTransport is one process's handle on the network: the transport its
// Config names (the Sim, unless a test wraps it), until Crash revokes it.
// Then every call the dead process still makes fails as its sockets would,
// and it can no longer register or unregister the name a new process of
// the node serves.
type procTransport struct {
	transport.Transport
	dead atomic.Bool
}

func (p *procTransport) Call(from, to string, msg transport.Message) (transport.Message, error) {
	if p.dead.Load() {
		return transport.Message{}, fmt.Errorf("%w: %s is a dead process", transport.ErrUnreachable, from)
	}
	return p.Transport.Call(from, to, msg)
}

func (p *procTransport) Register(name string, h transport.Handler) {
	if !p.dead.Load() {
		p.Transport.Register(name, h)
	}
}

func (p *procTransport) Unregister(name string) {
	if !p.dead.Load() {
		p.Transport.Unregister(name)
	}
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
	c := &Cluster{Sim: sim, Ring: ring, cfg: cfg, members: make(map[string]*member)}
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
		Clock:             c.now,
	}
	if c.cfg.Mutate != nil {
		c.cfg.Mutate(i, &nodeCfg)
	}
	m := &member{cfg: nodeCfg}
	if c.cfg.Persist {
		m.fs = store.NewMemFS()
	}
	n, err := c.start(name, m)
	if err != nil {
		return nil, fmt.Errorf("cluster: boot %s: %w", name, err)
	}
	c.names = append(c.names, name)
	return n, nil
}

// start runs a new process of the named member: core.NewNode with its
// Config, on a handle of its own on the network and, in Persist mode, over
// a fresh view of its data filesystem.
func (c *Cluster) start(name string, m *member) (*core.Node, error) {
	cfg := m.cfg
	var view *store.MemView
	if m.fs != nil {
		view = m.fs.View()
		cfg.DataFS = view
	}
	tr := &procTransport{Transport: cfg.Transport}
	if tr.Transport == nil {
		tr.Transport = c.Ring.Transport
	}
	cfg.Transport = tr
	n, err := core.NewNode(cfg)
	if err == nil {
		c.mu.Lock()
		c.members[name], m.node, m.view, m.tr = m, n, view, tr
		c.mu.Unlock()
	}
	return n, err
}

// member returns the named member, or nil.
func (c *Cluster) member(name string) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[name]
}

// now is every node's clock: the simulated network's virtual time, counted
// from the Unix epoch, so a lease timestamp in nanoseconds is the virtual
// time itself.
func (c *Cluster) now() time.Time { return time.Unix(0, int64(c.Sim.Now())) }

// AddNode boots one additional node (continuing the node-<i> sequence)
// onto the running cluster's ring and returns its name. Like any new node
// it owes a catch-up, which its first core.Node.Tick, or its first
// maintenance round in StabilizeAll, runs: it streams the key range it now
// owns from its successor. The origin must be the same fetcher the
// cluster was built with (it is per-node configuration).
func (c *Cluster) AddNode(origin core.Fetcher) (string, error) {
	n, err := c.boot(len(c.names), origin)
	if err != nil {
		return "", err
	}
	return n.Name(), nil
}

// Names returns the node names in boot order.
func (c *Cluster) Names() []string { return append([]string(nil), c.names...) }

// Node returns the i-th node's running process, or nil while it is
// crashed.
func (c *Cluster) Node(i int) *core.Node { return c.NodeByName(c.names[i]) }

// NodeByName returns the named node's running process, or nil when the
// node is unknown or crashed. A restart runs a new process, so a test that
// holds one across a restart holds the dead one.
func (c *Cluster) NodeByName(name string) *core.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.members[name]; m != nil {
		return m.node
	}
	return nil
}

// Handle runs one GET through the named node.
func (c *Cluster) Handle(node, url string) (*httpmsg.Response, error) {
	n := c.NodeByName(node)
	if n == nil {
		return nil, fmt.Errorf("cluster: node %s is unknown or crashed", node)
	}
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	return resp, err
}

// Partition splits the network into groups (unlisted nodes form their own
// side); Heal removes it.
func (c *Cluster) Partition(groups ...[]string) { c.Sim.Partition(groups...) }

// Heal removes every partition.
func (c *Cluster) Heal() { c.Sim.Heal() }

// Crash kills a node's process. Its network endpoint goes down; its
// handle on the network and its view of its data filesystem are revoked,
// so every call and every file operation the dead process still runs
// through them fails, as a dead process's sockets and descriptors do, even
// once the name is restarted; and the harness drops its *core.Node, with
// every volatile structure in it. In
// Persist mode the data filesystem keeps every byte already written, as a
// disk does when only the process dies. Losing the unsynced bytes too is a
// power loss (store.MemFS.DropUnsynced), which tests inject themselves.
func (c *Cluster) Crash(name string) {
	c.Sim.Crash(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.members[name]; m != nil {
		if m.view != nil {
			m.view.Revoke()
		}
		if m.tr != nil {
			m.tr.dead.Store(true)
		}
		m.node, m.view, m.tr = nil, nil, nil
	}
}

// Restart starts a new process for a node, killing the running one first if
// there is one: core.NewNode with the node's Config under the same name. The
// old member leaves the ring first, since Ring.Join would hand back its
// overlay node. In Persist mode the process opens the preserved data
// directory through a fresh view (hard state replayed from the log, disk
// cache and large-object tiers rescanned); otherwise it comes back
// empty-handed. Either way it owes a catch-up, which its next maintenance
// round runs: it streams the key range it owns back from its successors.
// (Restart may run from inside the simulated network's event loop, where
// sending messages is forbidden, so the pull itself waits for StabilizeAll.)
func (c *Cluster) Restart(name string) {
	c.Crash(name)
	m := c.member(name)
	if m == nil {
		return
	}
	c.Ring.Leave(name)
	if _, err := c.start(name, m); err != nil {
		c.fail("restart %s: %v", name, err)
		return
	}
	c.Sim.Restart(name)
}

// fail records a harness error for Err.
func (c *Cluster) fail(format string, args ...any) {
	c.errMu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.errMu.Unlock()
}

// Err reports failures from fault actions (a restart whose new process
// failed to open its storage); tests check it after driving a schedule.
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
func (c *Cluster) DataFS(name string) *store.MemFS {
	if m := c.member(name); m != nil {
		return m.fs
	}
	return nil
}

// Live reports whether the node is currently not crashed.
func (c *Cluster) Live(name string) bool { return !c.Sim.Crashed(name) }

// StabilizeAll runs maintenance rounds. Each round executes the fault
// DSL's deferred deploys, then runs one core.Node.Maintain — the round
// core.Node.Tick runs every 5 s — on every live node in name order. A crashed
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
			n := c.NodeByName(name)
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
	n := c.NodeByName(node)
	if n == nil {
		return 0, fmt.Errorf("cluster: node %s is unknown or crashed", node)
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
		if !c.Live(p.node) || c.NodeByName(p.node) == nil {
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
		n := c.NodeByName(name)
		if n == nil || !c.Live(name) {
			continue
		}
		if got := n.AppliedGeneration(site); got != wantGen {
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
		n := c.NodeByName(name)
		if n == nil || !c.Live(name) {
			continue
		}
		if _, _, deleted, ok := n.LocalStateRecord(site, key); ok && !deleted {
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
			n := c.NodeByName(name)
			if n == nil || !c.Live(name) {
				continue
			}
			got, err := n.Overlay().LookupName(key)
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
	holders := c.NodeByName(node).Overlay().Locate(key)
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

// AddPage serves body at url as HTML, with the given freshness lifetime.
func (o *CountingOrigin) AddPage(url, body string, maxAge int) {
	o.add(url, httpmsg.NewHTMLResponse(200, body), maxAge)
}

// AddScript serves src at url as JavaScript, with the given freshness
// lifetime: a stage script, which a node does not read from an HTML page.
func (o *CountingOrigin) AddScript(url, src string, maxAge int) {
	r := httpmsg.NewTextResponse(200, src)
	r.Header.Set("Content-Type", "application/javascript")
	o.add(url, r, maxAge)
}

func (o *CountingOrigin) add(url string, r *httpmsg.Response, maxAge int) {
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
