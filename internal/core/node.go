// Package core implements the Na Kika edge node: the proxy runtime that ties
// the scripting pipeline, the proxy cache, the congestion-based resource
// manager, the structured overlay, hard state, and content integrity into
// one deployable unit (Figure 1 of the paper).
package core

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/cache"
	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/loadview"
	"nakika/internal/metrics"
	"nakika/internal/overlay"
	"nakika/internal/pipeline"
	"nakika/internal/resource"
	"nakika/internal/script"
	"nakika/internal/state"
	"nakika/internal/store"
	nktrace "nakika/internal/trace"
	"nakika/internal/transport"
)

// Fetcher retrieves a resource from an upstream server. The default fetcher
// is HTTPFetcher (upstream.go); tests and simulations inject in-process
// origins.
type Fetcher interface {
	Do(req *httpmsg.Request) (*httpmsg.Response, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(req *httpmsg.Request) (*httpmsg.Response, error)

// Do implements Fetcher.
func (f FetcherFunc) Do(req *httpmsg.Request) (*httpmsg.Response, error) { return f(req) }

// Config configures an edge node.
type Config struct {
	// Name identifies the node in the overlay, in Via headers, and in logs.
	Name string
	// Region is the node's coarse location, used by the redirector to pick
	// nearby nodes for clients.
	Region string
	// Upstream fetches from origin servers; nil means a real HTTP client.
	Upstream Fetcher
	// Cache configures the proxy cache. The node sets its L2 (the disk tier)
	// and its Clock (Config.Clock).
	Cache cache.Config
	// ScriptLimits bounds every stage's scripting context; zero values mean
	// 50M steps and 64 MiB of heap.
	ScriptLimits script.Limits
	// Resources configures the congestion controller; EnableResources turns
	// it on (off matches the paper's "without resource controls" baseline).
	Resources       resource.Config
	EnableResources bool
	// ClientWallURL and ServerWallURL override the administrative control
	// script locations.
	ClientWallURL string
	ServerWallURL string
	// LocalNetworks lists CIDR blocks considered part of the node's hosting
	// organization for System.isLocal.
	LocalNetworks []string
	// Ring is the shared overlay; nil disables cooperative caching.
	Ring *overlay.Ring
	// Transport carries peer-to-peer traffic (cooperative cache fetches,
	// state replication, and — via the Ring — overlay routing). Nil means
	// the Ring's transport, so in-process nodes sharing a Ring communicate
	// by direct calls exactly as before; pass a TCP or simulated transport
	// to run the same protocol across processes or under fault injection.
	Transport transport.Transport
	// Directory locates peer nodes in-process; retained for embedding
	// API compatibility (peer cache fetches now ride the Transport).
	Directory *Directory
	// Bus is the shared in-process reliable messaging service: nodes
	// without a Ring replicate hard state over it, and State.propagate
	// publishes on it. Nil leaves both off.
	Bus *state.Bus
	// ReplicationFactor is the number of copies kept of every hard-state
	// key when a Ring and Transport are configured: the ring owner of the
	// key plus ReplicationFactor-1 of its successors, written
	// synchronously, with reads failing over to the first live successor
	// when the owner is dead (see internal/core/replication.go). Zero
	// means the default of 3; 1 keeps owner-only placement (no replicas);
	// negative is an error.
	ReplicationFactor int
	// OffloadThreshold is the load score above which an arriving request is
	// shed to the least-loaded live replica of its site instead of executing
	// locally (see internal/core/offload.go for the load score definition).
	// Zero disables offload entirely — the request path is byte-identical to
	// a build without the offload layer.
	OffloadThreshold float64
	// HedgeAfter is the latency budget for replicated hard-state reads:
	// when the acting owner's expected round trip (a per-peer EWMA of RPC
	// RTTs) exceeds it, the read is hedged to the next replica in successor
	// order. Zero disables hedging.
	HedgeAfter time.Duration
	// LeaseTTL is the default time-to-live of distributed leases taken
	// without an explicit TTL (see internal/core/lease.go); zero means 30s.
	LeaseTTL time.Duration
	// Clock is the node's one time source; nil means time.Now. Cache
	// freshness and the disk tier, the overlay index's entry expiry, load
	// decay and RTTs, lease expiry, System.time, pipeline spans, request
	// latency, the access log and Tick's schedule all read it. The cluster
	// harness injects the simulated network's virtual clock, so a seeded
	// run expires entries and leases in virtual time.
	Clock func() time.Time
	// LoadHalfLife is the decay half-life of the load score's work
	// component; zero means the loadview default (2s).
	LoadHalfLife time.Duration
	// DataFS, when non-nil, is the node's data directory: the hard-state
	// log and the large-object tier on it survive a crash (acknowledged
	// writes are replayed), and fresh cache entries evicted from memory
	// demote to a disk tier the node rewarms from after restart. Nil runs
	// the same log and tier on a private in-memory filesystem that dies
	// with the process, and no disk tier. cmd/nakikad builds a DirFS from
	// -data-dir; the cluster harness injects per-node in-memory filesystems.
	DataFS store.FS
	// LargeObjectThreshold, when positive, enables the chunked large-object
	// tier: 200 responses at least this many bytes long are split into
	// fixed-size content-addressed segments held in a disk slab and served
	// as lazy body streams (Range requests and header-only scripts never
	// buffer the body). Zero disables the tier, the seed behaviour.
	LargeObjectThreshold int64
	// LargeObjectSegment is the tier's segment size; zero means 256 KiB.
	LargeObjectSegment int64
	// LargeObjectCapacity bounds the segment slab's byte footprint; zero
	// means 512 MiB. Beyond it the oldest segments are reclaimed first;
	// those still being read are carried forward.
	LargeObjectCapacity int64
	// NoObserve disables the node's observability plane: no metrics
	// registry, no request latency histogram, no trace ids minted, and no
	// samples recorded — requests and RPC frames are byte-identical to a
	// build without the plane. The bench harness uses it to measure the
	// plane's hot-path cost.
	NoObserve bool
}

// Stats aggregates node-level counters.
type Stats struct {
	Requests      int64
	CacheHits     int64
	PeerHits      int64
	OriginFetches int64
	// CoalescedFetches counts requests that joined another request's
	// in-flight fetch of the same key instead of contacting the origin
	// themselves (single-flight stampede suppression).
	CoalescedFetches int64
	Generated        int64
	Rejected         int64
	Errors           int64
	Cache            cache.Stats
	Resources        resource.Stats
	Replication      ReplicationStats
	Offload          OffloadStats
	Lease            LeaseStats
	CatchUp          CatchUpStats
}

// CatchUpStats reports the pull of its owned key range that a new or
// recovered node owes (see CatchUp): whether it is still pending, and how
// many pulls have been tried and records applied since it was set.
type CatchUpStats struct {
	Pending  bool
	Attempts int64
	Applied  int64
}

// OffloadStats counts load-shedding and hedged-read activity (all zero when
// offload and hedging are disabled).
type OffloadStats struct {
	// Executed counts requests this node ran through its own pipeline —
	// arrivals it kept plus offloads it accepted. The acceptance tests use
	// it to measure per-node load spread.
	Executed int64
	// ForwardedOut counts requests this node shed to a less-loaded replica.
	ForwardedOut int64
	// ReceivedIn counts offloaded requests accepted from peers.
	ReceivedIn int64
	// Fallbacks counts forwards that failed in transit and were executed
	// locally instead (the partition fallback).
	Fallbacks int64
	// DepthCapHits counts requests that reached the forwarding-depth cap
	// and were pinned to local execution.
	DepthCapHits int64
	// HedgedReads counts replicated reads diverted to the next replica
	// because the acting owner's expected RTT blew the hedge budget;
	// HedgeHits counts the ones the hedge target answered.
	HedgedReads int64
	HedgeHits   int64
}

// ReplicationStats counts successor-list replication activity (all zero
// when replication is disabled).
type ReplicationStats struct {
	// ForwardedOps counts mutations this node routed to another acting
	// owner instead of executing locally.
	ForwardedOps int64
	// ReplicaPushes counts records peers accepted from this node's
	// synchronous replication and repair pushes.
	ReplicaPushes int64
	// FailoverReads counts reads served by a successor after the routed
	// owner was found dead.
	FailoverReads int64
	// RecordsApplied counts records this node applied from peers (pushes
	// and handoff streams) that superseded its local copy.
	RecordsApplied int64
}

// Directory maps node names to live nodes so cooperative cache fetches can
// be served in-process; it stands in for the peer-to-peer HTTP fetches a
// distributed deployment would perform.
type Directory struct {
	mu    sync.RWMutex
	nodes map[string]*Node
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{nodes: make(map[string]*Node)} }

// Register adds a node.
func (d *Directory) Register(n *Node) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes[n.Name()] = n
}

// Lookup returns the named node, or nil.
func (d *Directory) Lookup(name string) *Node {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nodes[name]
}

// Node is one Na Kika edge node.
type Node struct {
	cfg      Config
	clock    func() time.Time // Config.Clock, resolved
	cache    *cache.Cache
	loader   *pipeline.Loader
	executor *pipeline.Executor
	res      *resource.Manager
	store    *state.Store
	log      *state.AccessLog
	overlay  *overlay.Node
	tr       transport.Transport
	bus      *state.Bus
	localNet []*net.IPNet
	replicas map[string]*state.Replica
	repMu    sync.Mutex
	// flights coalesces concurrent misses of one cacheable request (see
	// internal/core/fetch.go).
	flights cache.Group[*httpmsg.Response]
	// pendingPub holds cache keys whose overlay publish failed (index owner
	// partitioned or crashed); Maintain retries them after heal.
	pubMu      sync.Mutex
	pendingPub map[string]struct{}
	// Successor-list replication state: the resolved factor (0 when
	// disabled), one lock serializing versioned read-modify-write applies,
	// and the flag overlay stabilization sets when churn calls for repair.
	repFactor     int
	repApplyMu    sync.Mutex
	repairPending atomic.Bool
	// Maintenance (see Maintain): whether the owned-range pull is still
	// owed, the pulls tried since it was set and the records they applied,
	// the rounds run, and the full repairs by trigger.
	catchUp         atomic.Bool
	catchUpTries    atomic.Int64
	catchUpApplied  atomic.Int64
	maintRounds     atomic.Int64
	repairsCatchUp  atomic.Int64
	repairsChurn    atomic.Int64
	repairsPeriodic atomic.Int64

	// Load accounting and offload/hedging state: the node's own load meter,
	// its view of peer loads (fed by gossip piggybacked on overlay
	// maintenance and offload replies), and per-peer RTT estimates for
	// hedge budgets.
	meter *loadview.Meter
	view  *loadview.View
	rtts  *loadview.RTT
	// cands caches per-site offload candidate sets; candGen is bumped by
	// the overlay churn hook, and offloadCandidates rebuilds the map when
	// its candMapGen trails it.
	candMu     sync.Mutex
	cands      map[string][]string
	candMapGen uint64
	candGen    atomic.Uint64

	// leaseMu serializes lease arbitration on this node (acting-owner
	// decisions are read-decide-store cycles; see internal/core/lease.go).
	leaseMu sync.Mutex

	// Observability plane (see internal/core/observe.go): the trace-id
	// generator, the ring of recent request samples, the metrics registry,
	// and the request latency histogram. All nil/unused when
	// Config.NoObserve is set — ring doubles as the enable flag.
	ids     *nktrace.IDGen
	ring    *nktrace.Ring
	reg     *metrics.Registry
	latency *metrics.Histogram

	requests      atomic.Int64
	cacheHits     atomic.Int64
	peerHits      atomic.Int64
	originFetches atomic.Int64
	coalesced     atomic.Int64
	generated     atomic.Int64
	rejected      atomic.Int64
	errors        atomic.Int64
	repForwarded  atomic.Int64
	repPushes     atomic.Int64
	repFailovers  atomic.Int64
	repApplied    atomic.Int64
	repTies       atomic.Int64
	unavailGet    atomic.Int64
	unavailPut    atomic.Int64
	unavailDel    atomic.Int64
	offExecuted   atomic.Int64
	offFwdOut     atomic.Int64
	offRecvIn     atomic.Int64
	offFallback   atomic.Int64
	offDepthCap   atomic.Int64
	hedged        atomic.Int64
	hedgeHits     atomic.Int64
	leaseAcquired atomic.Int64
	leaseRenewed  atomic.Int64
	leaseReleased atomic.Int64
	leaseDenied   atomic.Int64
	leaseCrashHO  atomic.Int64
	leaseExpiryHO atomic.Int64
	leaseFenced   atomic.Int64
	leaseFenceRej atomic.Int64

	// Live script deployment plane (see internal/core/deploy.go): the
	// per-site table of compiled, swapped-in deployment stages; the set of
	// sites whose per-site active-generation gauge has been registered; and
	// the deploy outcome counters. deployMu guards only the table and gauge
	// set (it sits on the request hot path); deployPubMu serializes this
	// node's publish read-modify-write cycles; deployApplyMu serializes
	// record-to-pipeline applies so a stale apply cannot land over a newer
	// one.
	deployMu      sync.Mutex
	deployPubMu   sync.Mutex
	deployApplyMu sync.Mutex
	deployed      map[string]*deployActive
	deployGauges  map[string]bool
	deployApplied atomic.Int64
	deployRej     atomic.Int64
	deployRolled  atomic.Int64
	deployCompErr atomic.Int64

	// Chunked large-object tier (see internal/core/largeobject.go): the
	// tier handle (nil when disabled or crashed), the in-flight streaming
	// ingests keyed by cache key, the per-(key,segment) fetch flights, and
	// the tier counters.
	lobMu        sync.Mutex
	lob          *largeobject.Tier
	lobIngMu     sync.Mutex
	lobIngests   map[string]*lobIngest
	segFlights   cache.Group[[]byte]
	lobStreamed  atomic.Int64
	lobWhole     atomic.Int64
	lobStreamIng atomic.Int64
	lobAdopted   atomic.Int64
	lobSegPeer   atomic.Int64
	lobSegOrigin atomic.Int64
	// Revalidations of a stale manifest by how they ended (a 304 that renewed
	// it, a 304 the renewal rule refused, a new 200, no usable answer), and
	// segment reads that waited on an ingest.
	lobRevalSame    atomic.Int64
	lobRevalRefused atomic.Int64
	lobRevalNew     atomic.Int64
	lobRevalFailed  atomic.Int64
	lobIngWaits     atomic.Int64

	// The client port's listeners, connections and counters (see
	// internal/core/ingress.go).
	ingress ingress
	// Tick's periodic work, laid out by the first Tick, and whether Stop
	// has ended it (see internal/core/lifecycle.go).
	schedMu sync.Mutex
	jobs    []*job
	stopped bool
}

// NewNode builds a node from cfg.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: node name is required")
	}
	if cfg.ReplicationFactor < 0 {
		return nil, fmt.Errorf("core: replication factor %d: must be at least 1 (0 means the default of 3)", cfg.ReplicationFactor)
	}
	if cfg.Upstream == nil {
		cfg.Upstream = &HTTPFetcher{}
	}
	if cfg.ScriptLimits.MaxSteps == 0 {
		cfg.ScriptLimits.MaxSteps = 50_000_000
	}
	if cfg.ScriptLimits.MaxHeapBytes == 0 {
		cfg.ScriptLimits.MaxHeapBytes = 64 << 20
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	n := &Node{
		cfg:        cfg,
		clock:      clock,
		log:        state.NewAccessLog(clock),
		replicas:   make(map[string]*state.Replica),
		pendingPub: make(map[string]struct{}),
		deployed:   make(map[string]*deployActive),
	}
	kv, disk, err := n.openStorage()
	if err != nil {
		return nil, err
	}
	n.store = state.NewStoreBacked(kv)
	cacheCfg := cfg.Cache
	cacheCfg.L2 = disk
	cacheCfg.Clock = clock
	n.cache = cache.New(cacheCfg)
	for _, cidr := range cfg.LocalNetworks {
		_, ipnet, err := net.ParseCIDR(cidr)
		if err != nil {
			return nil, fmt.Errorf("core: local network %q: %w", cidr, err)
		}
		n.localNet = append(n.localNet, ipnet)
	}
	n.res = resource.NewManager(cfg.Resources)
	n.res.SetEnabled(cfg.EnableResources)
	n.loader = pipeline.NewLoader(hostAdapter{n}, cfg.ScriptLimits)
	n.loader.ForkCharge = func(site string, heapBytes int64) {
		n.res.Charge(site, resource.Memory, float64(heapBytes))
	}
	n.executor = &pipeline.Executor{
		Loader:         n.loader,
		Host:           hostAdapter{n},
		FetchOrigin:    n.fetchWithCache,
		ClientWallURL:  cfg.ClientWallURL,
		ServerWallURL:  cfg.ServerWallURL,
		SiteDeployment: n.siteDeployment,
	}
	if cfg.EnableResources {
		n.executor.Resources = n.res
	}
	// Load accounting is always on (it is a handful of atomic/mutex ops per
	// request); the offload and hedging behaviours it feeds are opt-in via
	// OffloadThreshold / HedgeAfter.
	born := clock()
	since := func() time.Duration { return clock().Sub(born) }
	n.meter = loadview.NewMeter(since, cfg.LoadHalfLife)
	n.view = loadview.NewView(since, cfg.LoadHalfLife)
	n.rtts = loadview.NewRTT(0)
	if cfg.Ring != nil {
		n.overlay = cfg.Ring.Join(cfg.Name, cfg.Region)
		n.overlay.SetLoadGossip(n.LoadScore, n.view.Observe)
		n.overlay.SetCopies(n.copyUntil, clock)
	}
	if !cfg.NoObserve {
		n.ids = nktrace.NewIDGen(cfg.Name)
		n.ring = nktrace.NewRing(nktrace.DefaultRingSize)
		n.buildRegistry()
	}
	if cfg.Directory != nil {
		cfg.Directory.Register(n)
	}
	n.tr = cfg.Transport
	if n.tr == nil && cfg.Ring != nil {
		n.tr = cfg.Ring.Transport
	}
	n.bus = cfg.Bus
	// Successor-list replication of hard state: on (factor 3 by default)
	// whenever the node has an overlay position and a transport to push
	// replicas over.
	if cfg.Ring != nil && n.tr != nil {
		n.repFactor = cfg.ReplicationFactor
		if n.repFactor == 0 {
			n.repFactor = 3
		}
	}
	n.catchUp.Store(n.repEnabled())
	if n.repEnabled() || n.offloadEnabled() {
		n.overlay.SetChurnHook(func() {
			// Churn shifts both replication targets and offload candidate
			// sets; the repair flag is a no-op without replication.
			n.repairPending.Store(true)
			n.candGen.Add(1)
		})
	}
	if n.tr != nil {
		// One registered name serves every subsystem: overlay routing and
		// index RPCs, cooperative cache fetches (whole bodies, large-object
		// manifests and segments), replication pushes and handoff, offload,
		// leases and deploys. This replaces the overlay-only handler
		// Ring.Join registered.
		mux := transport.NewMux()
		if n.overlay != nil {
			mux.Route("ov.", n.overlay.ServeRPC)
		}
		mux.Route("cache.", n.serveCacheRPC)
		mux.Route("rep.", n.serveRepRPC)
		mux.Route("off.", n.serveOffloadRPC)
		mux.Route("lease.", n.serveLeaseRPC)
		mux.Route("deploy.", n.serveDeployRPC)
		n.tr.Register(cfg.Name, mux.Serve)
	}
	return n, nil
}

// openStorage opens (or reopens after a crash) the node's engines on one
// filesystem: cfg.DataFS, or a fresh in-memory one when the node has no data
// directory, which is why such a node comes back from a crash empty-handed.
// The hard-state log lives under state/, the large-object tier under lob/,
// and the disk cache tier under cache/. The disk tier alone needs a data
// directory: on a MemFS it would hold the memory cache's evictions in RAM a
// second time.
func (n *Node) openStorage() (*store.Log, *cache.Disk, error) {
	fs := n.cfg.DataFS
	if fs == nil {
		fs = store.NewMemFS()
	}
	kv, err := store.OpenLog(store.Sub(fs, "state"), store.LogConfig{Quota: state.DefaultQuota})
	if err != nil {
		return nil, nil, fmt.Errorf("core: open state log: %w", err)
	}
	var disk *cache.Disk
	if n.cfg.DataFS != nil {
		// Zero bytes: the tier's 1 GiB default.
		if disk, err = cache.OpenDisk(store.Sub(fs, "cache"), 0, n.clock); err != nil {
			err = fmt.Errorf("core: open disk cache: %w", err)
		}
	}
	if err == nil {
		err = n.openLob(store.Sub(fs, "lob"))
	}
	if err != nil {
		kv.Close()
		return nil, nil, err
	}
	return kv, disk, nil
}

// StoreStats returns the hard-state log's counters.
func (n *Node) StoreStats() store.LogStats { return n.store.Backend().Stats() }

// Shutdown flushes and closes the node's engines — the graceful
// path a SIGTERM takes. The node must not serve requests afterwards.
func (n *Node) Shutdown() error {
	n.cache.FlushToDisk()
	var err error
	if d := n.cache.L2(); d != nil {
		err = d.Close()
	}
	if t := n.lobTier(); t != nil {
		err = errors.Join(err, t.Close())
	}
	return errors.Join(n.store.Backend().Close(), err)
}

// Crash simulates an abrupt process death for the fault-injection
// harness: all soft state is discarded (overlay index slice, memory
// cache) and the storage engine is abandoned mid-flight without flushing
// — unacknowledged writes are lost, exactly as a real crash would lose
// them, while the data filesystem keeps every byte already written.
func (n *Node) Crash() {
	if n.overlay != nil {
		n.overlay.DropIndex()
	}
	n.cache.Clear()
	// The disk tier is abandoned like the WAL below. It buffers nothing, so
	// closing its segment handle loses what the process death would, which
	// is nothing, and a request still in flight can no longer append to a
	// log the recovered tier has taken over.
	if d := n.cache.L2(); d != nil {
		d.Close()
	}
	n.cache.SetL2(nil)
	// The deployment table is soft state: a real crashed process loses its
	// compiled stages and rebuilds them from the replicated records on the
	// way back up (Maintain's syncDeployments).
	n.deployMu.Lock()
	n.deployed = make(map[string]*deployActive)
	n.deployMu.Unlock()
	// The large-object tier handle is abandoned mid-flight too: the
	// manifest table and ingest trackers die with the process, while
	// persisted manifests and log segments stay on the data filesystem for
	// Recover to replay (a torn record fails its checksum and ends its
	// segment's scan). Its log is closed like the disk tier's, and for the
	// same reason: an ingest that outlives the crash stores nothing more.
	n.lobMu.Lock()
	if n.lob != nil {
		n.lob.Close()
	}
	n.lob = nil
	n.lobMu.Unlock()
	n.lobIngMu.Lock()
	for _, ing := range n.lobIngests {
		ing.finish(fmt.Errorf("core: node crashed"))
	}
	n.lobIngests = nil
	n.lobIngMu.Unlock()
	// Until Recover the abandoned log refuses every write with ErrClosed.
	n.store.Backend().Abandon()
}

// Recover reopens the node's engines after a Crash (see openStorage). With
// a data filesystem hard state is rebuilt by replaying the log (recovering
// exactly the acknowledged writes), and the disk cache tier and the
// large-object tier are rescanned so the node rewarms without touching the
// origin; without one the node comes back empty-handed. Either way it missed
// the writes made while it was down, so a catch-up is pending again.
func (n *Node) Recover() error {
	kv, disk, err := n.openStorage()
	if err != nil {
		return err
	}
	n.store.SetBackend(kv)
	n.cache.SetL2(disk)
	n.catchUpTries.Store(0)
	n.catchUpApplied.Store(0)
	n.catchUp.Store(n.repEnabled())
	return nil
}

// periodicRepairRounds is how often, in rounds, Maintain runs a full repair
// with no other trigger.
const periodicRepairRounds = 6

// Maintain runs one maintenance round. Tick runs one 5 s after the last
// returns, and the cluster harness one per node in each StabilizeAll round,
// in this order:
//  1. overlay Stabilize, one ping round over the node's ring neighbours;
//  2. a pending catch-up (CatchUp), followed, when the pull succeeds, by a
//     full repair;
//  3. otherwise a full repair on every sixth round of this node, or when
//     stabilization flagged churn;
//  4. a retry of the cooperative-cache publishes that failed;
//  5. a re-probe of the peers slower than the hedge budget;
//  6. a sync of the pipeline with the deployment records.
//
// Churn flags see only what stabilization observes changing: a peer that
// died and came back between two rounds, or a write that failed over while
// routing still pointed at a dead owner, leaves none. The periodic pass
// restores the replication invariant regardless, so any six consecutive
// rounds include a full repair on every live node.
func (n *Node) Maintain() {
	round := n.maintRounds.Add(1)
	if n.overlay != nil {
		n.overlay.Stabilize()
	}
	churned := n.repairPending.Swap(false)
	caughtUp := false
	if n.catchUp.Load() {
		_, err := n.CatchUp()
		caughtUp = err == nil
	}
	var trigger *atomic.Int64
	switch {
	case caughtUp:
		trigger = &n.repairsCatchUp
	case round%periodicRepairRounds == 0:
		trigger = &n.repairsPeriodic
	case churned:
		trigger = &n.repairsChurn
	}
	if trigger != nil && n.repEnabled() {
		trigger.Add(1)
		n.repairReplication()
	}
	n.republishPending()
	n.refreshRTTs()
	n.syncDeployments()
}

// Name returns the node's name.
func (n *Node) Name() string { return n.cfg.Name }

// Resources exposes the node's resource manager (benchmarks drive its
// control procedure directly; Tick runs it on the node clock).
func (n *Node) Resources() *resource.Manager { return n.res }

// Cache exposes the node's proxy cache.
func (n *Node) Cache() *cache.Cache { return n.cache }

// Loader exposes the stage loader (extensions inject generated stages with
// it).
func (n *Node) Loader() *pipeline.Loader { return n.loader }

// Overlay exposes the node's overlay membership (nil without a Ring); the
// cluster harness uses it to inspect the node's view.
func (n *Node) Overlay() *overlay.Node { return n.overlay }

// Stats returns a snapshot of node counters.
func (n *Node) Stats() Stats {
	return Stats{
		Requests:         n.requests.Load(),
		CacheHits:        n.cacheHits.Load(),
		PeerHits:         n.peerHits.Load(),
		OriginFetches:    n.originFetches.Load(),
		CoalescedFetches: n.coalesced.Load(),
		Generated:        n.generated.Load(),
		Rejected:         n.rejected.Load(),
		Errors:           n.errors.Load(),
		Cache:            n.cache.Stats(),
		Resources:        n.res.Stats(),
		Replication: ReplicationStats{
			ForwardedOps:   n.repForwarded.Load(),
			ReplicaPushes:  n.repPushes.Load(),
			FailoverReads:  n.repFailovers.Load(),
			RecordsApplied: n.repApplied.Load(),
		},
		Offload: OffloadStats{
			Executed:     n.offExecuted.Load(),
			ForwardedOut: n.offFwdOut.Load(),
			ReceivedIn:   n.offRecvIn.Load(),
			Fallbacks:    n.offFallback.Load(),
			DepthCapHits: n.offDepthCap.Load(),
			HedgedReads:  n.hedged.Load(),
			HedgeHits:    n.hedgeHits.Load(),
		},
		CatchUp: CatchUpStats{
			Pending:  n.catchUp.Load(),
			Attempts: n.catchUpTries.Load(),
			Applied:  n.catchUpApplied.Load(),
		},
		Lease: LeaseStats{
			Acquired:        n.leaseAcquired.Load(),
			Renewed:         n.leaseRenewed.Load(),
			Released:        n.leaseReleased.Load(),
			Denied:          n.leaseDenied.Load(),
			CrashHandovers:  n.leaseCrashHO.Load(),
			ExpiryHandovers: n.leaseExpiryHO.Load(),
			FencedWrites:    n.leaseFenced.Load(),
			FencedRejects:   n.leaseFenceRej.Load(),
		},
	}
}

// LoadScore returns the node's current load score (in-flight requests plus
// exponentially-decayed recent work): what the node gossips to peers and
// compares against Config.OffloadThreshold.
func (n *Node) LoadScore() float64 { return n.meter.Score() }

// Handle runs one request through the node: pipeline execution, caching, and
// access logging. It is the programmatic entry point; Serve and ServeHTTP
// wrap it for real HTTP traffic. When the node is over its offload
// threshold the request may instead be shed to a less-loaded replica of the
// site (see internal/core/offload.go) and executed there.
func (n *Node) Handle(req *httpmsg.Request) (*httpmsg.Response, *pipeline.Trace, error) {
	n.requests.Add(1)
	if n.ring != nil && req.TraceID == 0 {
		// Mint the request's cross-node trace id: it rides every RPC this
		// request fans out into (offload forwards, hedged reads, lease
		// operations), so samples recorded on different nodes share it.
		req.TraceID = n.ids.Next()
	}
	var start time.Time
	if n.ring != nil {
		start = n.clock()
	}
	if resp, who, err, shed := n.shedRequest(req, 0); shed {
		trace := &pipeline.Trace{Offloaded: true, OffloadPeer: who}
		trace.Act.ID = req.TraceID
		if err != nil {
			n.errors.Add(1)
			n.observe(req, nil, trace, start)
			return nil, trace, err
		}
		n.observe(req, resp, trace, start)
		return resp, trace, nil
	}
	return n.handleLocal(req)
}

// handleLocal executes one request on this node's own pipeline, metering
// its load cost.
func (n *Node) handleLocal(req *httpmsg.Request) (*httpmsg.Response, *pipeline.Trace, error) {
	n.offExecuted.Add(1)
	n.meter.Begin()
	// The completed request's load cost: one unit, weighted up by the
	// site's congestion share when the resource controller sees it burning
	// CPU — an expensive pipeline heats the node faster than a cache hit.
	// Deferred so a panic escaping the pipeline (recovered per connection
	// by the client port) cannot leave the in-flight count inflated forever.
	defer func() { n.meter.End(1 + n.res.Usage(req.SiteKey(), resource.CPU)) }()
	start := n.clock()
	resp, trace, err := n.executor.Execute(req)
	if err != nil {
		n.errors.Add(1)
		n.observe(req, nil, trace, start)
		return nil, trace, err
	}
	if trace.RejectedBusy {
		n.rejected.Add(1)
	}
	if trace.Generated {
		n.generated.Add(1)
	}
	if resp != nil {
		if resp.Via == "" {
			resp.Via = n.cfg.Name
		}
		resp.Header.Set("X-Na-Kika-Node", n.cfg.Name)
		if trace.Generation != 0 {
			// Tag the response with the one deployment generation its whole
			// pipeline ran against, so clients (and the e2e harness) can
			// verify no response mixes script versions across a deploy.
			resp.Header.Set("X-Na-Kika-Gen", strconv.FormatUint(trace.Generation, 10))
		}
		if resp.Stream != nil {
			trace.Streamed = true
			if p, ok := resp.Stream.(interface{ Progress() (int, int) }); ok {
				trace.Segments, trace.SegmentsResident = p.Progress()
			}
		}
		if site := req.SiteKey(); n.log.Posting(site) {
			n.log.Append(site, state.FormatAccess(req.ClientIP, req.Method, req.URL.String(), resp.Status, int(resp.TotalLen()), n.clock().Sub(start)))
		}
	}
	n.observe(req, resp, trace, start)
	return resp, trace, nil
}

// FlushLogs posts accumulated access-log entries to the URL each site's
// script named with Log.postTo, through the upstream fetcher.
func (n *Node) FlushLogs() error {
	return n.log.Flush(func(site, postURL string, lines []string) error {
		req, err := httpmsg.NewRequest(http.MethodPost, postURL)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Body = []byte(strings.Join(lines, "\n"))
		resp, err := n.cfg.Upstream.Do(req)
		if err != nil {
			return err
		}
		if resp.Status >= 400 {
			return fmt.Errorf("core: log post to %s returned %d", postURL, resp.Status)
		}
		return nil
	})
}

// replica returns (creating on demand) the hard state replica for site.
func (n *Node) replica(site string) *state.Replica {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	if r, ok := n.replicas[site]; ok {
		return r
	}
	r := &state.Replica{Site: site, Node: n.cfg.Name, Store: n.store, Bus: n.bus}
	if n.bus != nil {
		r.Attach()
	}
	n.replicas[site] = r
	return r
}

// ---------------------------------------------------------------------------
// Host surface (the pipeline reaches these through hostAdapter, which
// threads the per-request trace act in; see internal/core/observe.go)
// ---------------------------------------------------------------------------

// Fetch retrieves a resource on behalf of a script (and of the stage
// loader), going through the same cache path as origin fetches.
func (n *Node) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	return n.fetchWithCache(req)
}

// CacheGet gives scripts read access to the proxy cache under script-chosen
// keys (namespaced to avoid clashing with response cache keys).
func (n *Node) CacheGet(key string) *httpmsg.Response {
	return n.cache.Get("script:" + key)
}

// CachePut stores script-generated content in the proxy cache.
func (n *Node) CachePut(key string, resp *httpmsg.Response) {
	n.cache.Put("script:"+key, resp)
}

// IsLocalClient reports whether ip falls in one of the node's configured
// local networks (loopback always counts).
func (n *Node) IsLocalClient(ip string) bool {
	parsed := net.ParseIP(ip)
	if parsed == nil {
		return false
	}
	if parsed.IsLoopback() {
		return true
	}
	for _, ipnet := range n.localNet {
		if ipnet.Contains(parsed) {
			return true
		}
	}
	return false
}

// Usage exposes a site's normalized congestion contribution to scripts.
func (n *Node) Usage(site, resourceName string) float64 {
	var kind resource.Kind
	switch resourceName {
	case "cpu":
		kind = resource.CPU
	case "memory":
		kind = resource.Memory
	case "bandwidth":
		kind = resource.Bandwidth
	case "running-time":
		kind = resource.RunningTime
	case "bytes-transferred":
		kind = resource.BytesTransferred
	default:
		return 0
	}
	return n.res.Usage(site, kind)
}

// StateGet reads site-partitioned hard state. With successor replication
// enabled the read is routed to the key's acting owner and fails over to
// the first live successor when the owner is dead; otherwise it reads the
// local replica.
func (n *Node) StateGet(site, key string) (string, bool) { return n.stateGet(nil, site, key) }

func (n *Node) stateGet(act *nktrace.Act, site, key string) (string, bool) {
	if state.IsInternalKey(key) {
		// The internal namespace (lease records) is invisible to scripts:
		// reads miss, writes and deletes are refused. Lease state is
		// reached through the Lease vocabulary instead.
		return "", false
	}
	if n.repEnabled() {
		// StateGet has no error channel, so a read no owner answered is a
		// miss here; route has counted it as unavailable.
		value, ok, _ := n.repGet(act, site, key)
		return value, ok
	}
	return n.replica(site).Get(key)
}

// StatePut writes site-partitioned hard state. With successor replication
// enabled the write is routed to the key's acting owner, made durable
// there, and synchronously pushed to the owner's successors before it is
// acknowledged; otherwise it writes locally and propagates the update when
// a bus is configured.
func (n *Node) StatePut(site, key, value string) error { return n.statePut(nil, site, key, value) }

func (n *Node) statePut(act *nktrace.Act, site, key, value string) error {
	if state.IsInternalKey(key) {
		return fmt.Errorf("core: key %q is in the reserved internal namespace", key)
	}
	if n.repEnabled() {
		return n.repWrite(act, site, key, value, false)
	}
	r := n.replica(site)
	if n.bus == nil {
		return n.store.Put(site, key, value)
	}
	return r.Put(key, value)
}

// StateDelete removes site-partitioned hard state. With successor
// replication enabled the delete is a versioned tombstone written through
// the same owner path as StatePut, and is acknowledged or fails exactly as
// a put is; otherwise it deletes locally and propagates the removal when a
// bus is configured.
func (n *Node) StateDelete(site, key string) error { return n.stateDelete(nil, site, key) }

func (n *Node) stateDelete(act *nktrace.Act, site, key string) error {
	if state.IsInternalKey(key) {
		return fmt.Errorf("core: key %q is in the reserved internal namespace", key)
	}
	if n.repEnabled() {
		return n.repWrite(act, site, key, "", true)
	}
	if n.bus == nil {
		return n.store.Delete(site, key)
	}
	return n.replica(site).Delete(key)
}

// StateKeys lists a site's hard state keys. Under successor replication
// the keys of a site span the whole ring, so the listing scatters to
// every reachable member and merges (tombstones filtered) — keeping it
// consistent with StateGet, which also routes cluster-wide.
func (n *Node) StateKeys(site string) []string { return n.stateKeys(nil, site) }

func (n *Node) stateKeys(act *nktrace.Act, site string) []string {
	if n.repEnabled() {
		return n.repKeys(act, site)
	}
	return n.store.Keys(site)
}

// Propagate sends an application-level replication message for site.
func (n *Node) Propagate(site, message string) error {
	if n.bus == nil {
		return fmt.Errorf("core: no messaging service configured")
	}
	n.bus.Publish(site, n.cfg.Name, message)
	return nil
}

// NodeName identifies the node to scripts.
func (n *Node) NodeName() string { return n.cfg.Name }

// Now returns the node clock's time, which System.time reads.
func (n *Node) Now() time.Time { return n.clock() }
