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
	// ClientWallURL and ServerWallURL locate the administrative control
	// scripts; an empty one means no such stage (pipeline.Executor).
	ClientWallURL string
	ServerWallURL string
	// LocalNetworks lists CIDR blocks considered part of the node's hosting
	// organization for System.isLocal.
	LocalNetworks []string
	// Ring is the shared overlay; nil disables cooperative caching and
	// makes the node the owner of every hard-state key.
	Ring *overlay.Ring
	// Transport carries peer-to-peer traffic (cooperative cache fetches,
	// state replication, and — via the Ring — overlay routing). Nil means
	// the Ring's transport, so in-process nodes sharing a Ring communicate
	// by direct calls exactly as before; pass a TCP or simulated transport
	// to run the same protocol across processes or under fault injection.
	Transport transport.Transport
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
	// -data-dir; the cluster harness gives each process of a node a
	// revocable view (store.MemView) of the node's in-memory filesystem.
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
	localNet []*net.IPNet
	// stamp is the X-Na-Kika-Node field every response this node serves
	// goes out with (httpmsg.Response.Stamp), built once.
	stamp httpmsg.Header
	// flights coalesces concurrent misses of one cacheable request (see
	// internal/core/fetch.go).
	flights cache.Group[flightReply]
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
	// Revalidations of a stale copy, by revalTiers and revalResults.
	revalidations [len(revalTiers)][len(revalResults)]atomic.Int64
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

	// Live script deployment plane (see internal/core/deploy.go; the
	// deployed stages themselves live in the loader): deployPubMu
	// serializes this node's publish read-modify-write cycles;
	// deployApplyMu serializes record-to-pipeline applies, so a stale apply
	// cannot land over a newer one, and guards deployGauges, the sites
	// whose active-generation gauge has been registered; then the deploy
	// outcome counters.
	deployPubMu   sync.Mutex
	deployApplyMu sync.Mutex
	deployGauges  map[string]bool
	deployApplied atomic.Int64
	deployRej     atomic.Int64
	deployRolled  atomic.Int64
	deployCompErr atomic.Int64

	// Chunked large-object tier (see internal/core/largeobject.go): the
	// tier (nil when disabled), the per-(key,segment) fetch flights, and the
	// tier counters.
	lob          *largeobject.Tier
	segFlights   cache.Group[[]byte]
	lobStreamed  atomic.Int64
	lobWhole     atomic.Int64
	lobStreamIng atomic.Int64
	lobAdopted   atomic.Int64
	lobSegPeer   atomic.Int64
	lobSegOrigin atomic.Int64

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
		cfg:          cfg,
		clock:        clock,
		log:          state.NewAccessLog(clock),
		pendingPub:   make(map[string]struct{}),
		deployGauges: make(map[string]bool),
	}
	n.stamp.Set("X-Na-Kika-Node", cfg.Name)
	if err := n.openStorage(); err != nil {
		return nil, err
	}
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
	n.loader.Expiry = n.cache.Expiry
	n.loader.ForkCharge = func(site string, heapBytes int64) {
		n.res.Charge(site, resource.Memory, float64(heapBytes))
	}
	n.executor = &pipeline.Executor{
		Loader:        n.loader,
		Host:          hostAdapter{n},
		FetchOrigin:   n.fetchWithCache,
		ClientWallURL: cfg.ClientWallURL,
		ServerWallURL: cfg.ServerWallURL,
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
	n.tr = cfg.Transport
	if n.tr == nil && cfg.Ring != nil {
		n.tr = cfg.Ring.Transport
	}
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

// openStorage opens the node's engines — hard state, the proxy cache and
// the large-object tier — on one filesystem: cfg.DataFS, or a fresh
// in-memory one when the node has no data directory, which is why such a
// node comes back from a crash empty-handed. The hard-state log lives under
// state/, the large-object tier under lob/, and the disk cache tier under
// cache/. The disk tier alone needs a data directory: on a MemFS it would
// hold the memory cache's evictions in RAM a second time.
func (n *Node) openStorage() error {
	fs := n.cfg.DataFS
	if fs == nil {
		fs = store.NewMemFS()
	}
	kv, err := store.OpenLog(store.Sub(fs, "state"), store.LogConfig{Quota: state.DefaultQuota})
	if err != nil {
		return fmt.Errorf("core: open state log: %w", err)
	}
	cacheCfg := n.cfg.Cache
	cacheCfg.Clock = n.clock
	if n.cfg.DataFS != nil {
		// Zero bytes: the tier's 1 GiB default.
		if cacheCfg.L2, err = cache.OpenDisk(store.Sub(fs, "cache"), 0, n.clock); err != nil {
			err = fmt.Errorf("core: open disk cache: %w", err)
		}
	}
	if err == nil {
		err = n.openLob(store.Sub(fs, "lob"))
	}
	if err != nil {
		kv.Close()
		return err
	}
	n.store = state.NewStoreBacked(kv)
	n.cache = cache.New(cacheCfg)
	return nil
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
	if n.lob != nil {
		err = errors.Join(err, n.lob.Close())
	}
	return errors.Join(n.store.Backend().Close(), err)
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
	trace := new(pipeline.Trace)
	resp, err := n.HandleInto(req, trace)
	return resp, trace, err
}

// HandleInto is Handle with the trace's storage supplied by the caller,
// which it resets and fills: the client port lends each request its
// connection's, so a request allocates none. Nothing keeps trace once
// HandleInto returns.
func (n *Node) HandleInto(req *httpmsg.Request, trace *pipeline.Trace) (*httpmsg.Response, error) {
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
		*trace = pipeline.Trace{Offloaded: true, OffloadPeer: who}
		trace.Act.ID = req.TraceID
		if err != nil {
			n.errors.Add(1)
			n.observe(req, nil, trace, start)
			return nil, err
		}
		n.observe(req, resp, trace, start)
		return resp, nil
	}
	return n.handleLocal(req, trace)
}

// handleLocal executes one request on this node's own pipeline, metering
// its load cost, and fills trace.
func (n *Node) handleLocal(req *httpmsg.Request, trace *pipeline.Trace) (*httpmsg.Response, error) {
	n.offExecuted.Add(1)
	n.meter.Begin()
	// The completed request's load cost: one unit, weighted up by the
	// site's congestion share when the resource controller sees it burning
	// CPU — an expensive pipeline heats the node faster than a cache hit.
	// Deferred so a panic escaping the pipeline (recovered per connection
	// by the client port) cannot leave the in-flight count inflated forever.
	defer func() { n.meter.End(1 + n.res.Usage(req.SiteKey(), resource.CPU)) }()
	start := n.clock()
	resp, err := n.executor.ExecuteInto(req, trace)
	if err != nil {
		n.errors.Add(1)
		n.observe(req, nil, trace, start)
		return nil, err
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
		resp.Stamp = &n.stamp
		if trace.Generation != 0 {
			// Tag the response with the one deployment generation its whole
			// pipeline ran against, so clients (and the e2e harness) can
			// verify no response mixes script versions across a deploy.
			stamp := n.stamp
			stamp.Set("X-Na-Kika-Gen", strconv.FormatUint(trace.Generation, 10))
			resp.Stamp = &stamp
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
	return resp, nil
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

// ---------------------------------------------------------------------------
// Host surface (the pipeline reaches these through hostAdapter, which
// threads the per-request trace act in; see internal/core/observe.go)
// ---------------------------------------------------------------------------

// Fetch retrieves a resource on behalf of a script (and of the stage
// loader), going through the same cache path as origin fetches.
func (n *Node) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	return n.fetchWithCache(req)
}

// CacheGet gives a site's scripts read access to the proxy cache under
// script-chosen keys, namespaced apart from response cache keys and from
// every other site's.
func (n *Node) CacheGet(site, key string) *httpmsg.Response {
	return n.cache.Get(scriptCacheKey(site, key))
}

// CachePut stores a site's script-generated content in the proxy cache.
func (n *Node) CachePut(site, key string, resp *httpmsg.Response) {
	n.cache.Put(scriptCacheKey(site, key), resp)
}

// scriptCacheKey files a script's key under its site. A site is a hostname,
// which holds no NUL, so no two sites' keys meet.
func scriptCacheKey(site, key string) string { return "script:" + site + "\x00" + key }

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

// StateGet reads site-partitioned hard state: routed to the key's acting
// owner, failing over to the first live successor when the owner is dead.
// A node without peers owns every key and reads its own store.
func (n *Node) StateGet(site, key string) (string, bool) { return n.stateGet(nil, site, key) }

func (n *Node) stateGet(act *nktrace.Act, site, key string) (string, bool) {
	if state.IsInternalKey(key) {
		// The internal namespace (lease and deploy records) is invisible to
		// scripts: reads miss, writes and deletes are refused. Lease state
		// is reached through the Lease vocabulary instead.
		return "", false
	}
	// StateGet has no error channel, so a read no owner answered is a miss
	// here; route has counted it as unavailable.
	value, ok, _ := n.repGet(act, site, key)
	return value, ok
}

// StatePut writes site-partitioned hard state as a versioned record: routed
// to the key's acting owner, made durable there, and synchronously pushed
// to the owner's successors before it is acknowledged. A node without
// peers owns every key, so its write is a local versioned write.
func (n *Node) StatePut(site, key, value string) error { return n.statePut(nil, site, key, value) }

func (n *Node) statePut(act *nktrace.Act, site, key, value string) error {
	if state.IsInternalKey(key) {
		return fmt.Errorf("core: key %q is in the reserved internal namespace", key)
	}
	return n.repWrite(act, site, key, value, false)
}

// StateDelete removes site-partitioned hard state: a versioned tombstone
// written through the same owner path as StatePut, acknowledged or failing
// exactly as a put is.
func (n *Node) StateDelete(site, key string) error { return n.stateDelete(nil, site, key) }

func (n *Node) stateDelete(act *nktrace.Act, site, key string) error {
	if state.IsInternalKey(key) {
		return fmt.Errorf("core: key %q is in the reserved internal namespace", key)
	}
	return n.repWrite(act, site, key, "", true)
}

// StateKeys lists a site's live hard state keys, internal ones hidden. The
// keys of a site span the whole ring, so the listing scatters to every
// reachable member and merges — keeping it consistent with StateGet, which
// also routes cluster-wide.
func (n *Node) StateKeys(site string) []string { return n.repKeys(nil, site) }

// NodeName identifies the node to scripts.
func (n *Node) NodeName() string { return n.cfg.Name }

// Now returns the node clock's time, which System.time reads.
func (n *Node) Now() time.Time { return n.clock() }
