package core

import (
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/metrics"
	"nakika/internal/pipeline"
	nktrace "nakika/internal/trace"
	"nakika/internal/transport"
)

// This file is the node's observability plane: the vocab.Host adapter
// that threads each request's trace act into the state and lease paths,
// the traced RPC helper, per-request sample recording, and the metrics
// registry the admin listener scrapes. Everything here is disabled as a
// unit by Config.NoObserve.

// hostAdapter is the vocab.Host the pipeline sees. It forwards every
// host call to the node, passing the per-handler-run trace act into the
// state and lease paths so hedged reads, lease outcomes, and fenced
// writes land on the requesting pipeline's activity record — and so the
// request's trace id rides any RPC those operations fan out into.
// Node's own public methods keep their act-free signatures for
// embedders, the harness, and tests.
type hostAdapter struct{ n *Node }

func (h hostAdapter) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	return h.n.fetchWithCache(req)
}
func (h hostAdapter) CacheGet(site, key string) *httpmsg.Response { return h.n.CacheGet(site, key) }
func (h hostAdapter) CachePut(site, key string, resp *httpmsg.Response) {
	h.n.CachePut(site, key, resp)
}
func (h hostAdapter) IsLocalClient(ip string) bool        { return h.n.IsLocalClient(ip) }
func (h hostAdapter) Usage(site, resource string) float64 { return h.n.Usage(site, resource) }
func (h hostAdapter) Log(site, message string)            { h.n.log.Append(site, message) }
func (h hostAdapter) SetLogURL(site, postURL string)      { h.n.log.SetPostURL(site, postURL) }
func (h hostAdapter) NodeName() string                    { return h.n.NodeName() }
func (h hostAdapter) Now() time.Time                      { return h.n.Now() }

func (h hostAdapter) StateGet(act *nktrace.Act, site, key string) (string, bool) {
	return h.n.stateGet(act, site, key)
}
func (h hostAdapter) StatePut(act *nktrace.Act, site, key, value string) error {
	return h.n.statePut(act, site, key, value)
}
func (h hostAdapter) StateDelete(act *nktrace.Act, site, key string) error {
	return h.n.stateDelete(act, site, key)
}
func (h hostAdapter) StateKeys(act *nktrace.Act, site string) []string {
	return h.n.repKeys(act, site)
}
func (h hostAdapter) LeaseAcquire(act *nktrace.Act, site, name string, ttl time.Duration) (uint64, bool) {
	return h.n.leaseAcquire(act, site, name, ttl)
}
func (h hostAdapter) LeaseRenew(act *nktrace.Act, site, name string, token uint64, ttl time.Duration) bool {
	return h.n.leaseRenew(act, site, name, token, ttl)
}
func (h hostAdapter) LeaseRelease(act *nktrace.Act, site, name string, token uint64) bool {
	return h.n.leaseRelease(act, site, name, token)
}
func (h hostAdapter) FencedStatePut(act *nktrace.Act, site, key, value, name string, token uint64) error {
	return h.n.fencedStatePut(act, site, key, value, name, token)
}

// callT is the traced variant of call: when the operation runs on behalf
// of a traced request the request's id rides the RPC frame, so the peer
// serving it joins its work to the same trace. Untraced operations (nil
// act, or an act with no id) send frames byte-identical to a build
// without tracing — the codec only encodes a nonzero trace id.
func (n *Node) callT(act *nktrace.Act, to string, msg transport.Message) (transport.Message, error) {
	if act != nil {
		msg.Trace = act.ID
	}
	return n.call(to, msg)
}

// observe records one finished request into the latency histogram and
// the trace ring. Cost on the hot path: the sample's copy into its ring
// slot under the slot's lock, and atomic adds; no allocation, and a no-op
// under NoObserve.
func (n *Node) observe(req *httpmsg.Request, resp *httpmsg.Response, trace *pipeline.Trace, start time.Time) {
	if n.ring == nil {
		return
	}
	elapsed := n.clock().Sub(start)
	n.latency.Observe(elapsed.Seconds())
	s := nktrace.Sample{
		TraceID: req.TraceID,
		Node:    n.cfg.Name,
		Method:  req.Method,
		Start:   start,
		Elapsed: elapsed,
	}
	s.SetURL(req.URL.Host, req.URL.Path)
	if resp != nil {
		s.Status = resp.Status
	}
	if trace != nil {
		s.Generated = trace.Generated
		s.FromCache = trace.FromCache
		s.Terminated = trace.Terminated
		s.RejectedBusy = trace.RejectedBusy
		s.Offloaded = trace.Offloaded
		s.OffloadPeer = trace.OffloadPeer
		s.Generation = trace.Generation
		s.FillFromAct(&trace.Act)
		if s.TraceID == 0 {
			s.TraceID = req.TraceID
		}
	}
	n.ring.Record(&s)
}

// Metrics returns the node's registry (nil under Config.NoObserve); the
// admin listener serves it at /metrics.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Traces returns the node's ring of recent request samples (nil under
// Config.NoObserve); the admin listener serves it at /admin/traces.
func (n *Node) Traces() *nktrace.Ring { return n.ring }

// buildRegistry registers every exported series. Counters over the
// node's existing atomics are CounterFunc callbacks read at scrape time,
// so exporting them costs the request path nothing; subsystem snapshots
// (cache, large-object tier, store, resource) are taken per scrape.
func (n *Node) buildRegistry() {
	r := metrics.NewRegistry()
	cv := func(c *atomic.Int64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}

	r.CounterFunc("nakika_requests_total", "Requests arriving at this node (kept or offloaded).", nil, cv(&n.requests))
	r.CounterFunc("nakika_fetches_total", "Resource fetches by where they were served.", metrics.Labels{"source": "cache"}, cv(&n.cacheHits))
	r.CounterFunc("nakika_fetches_total", "", metrics.Labels{"source": "peer"}, cv(&n.peerHits))
	r.CounterFunc("nakika_fetches_total", "", metrics.Labels{"source": "origin"}, cv(&n.originFetches))
	r.CounterFunc("nakika_fetches_total", "", metrics.Labels{"source": "coalesced"}, cv(&n.coalesced))
	r.CounterFunc("nakika_generated_responses_total", "Responses generated by script handlers.", nil, cv(&n.generated))
	r.CounterFunc("nakika_rejected_total", "Requests refused by admission control (server busy).", nil, cv(&n.rejected))
	r.CounterFunc("nakika_errors_total", "Requests that failed with an error.", nil, cv(&n.errors))
	r.CounterFunc("nakika_accesslog_dropped_total", "Access-log entries overwritten unposted because their site's buffer was full.", nil,
		func() float64 { return float64(n.log.Dropped()) })

	r.CounterFunc("nakika_cache_hits_total", "Proxy cache hits per tier.", metrics.Labels{"tier": "memory"},
		func() float64 { return float64(n.cache.Stats().Hits) })
	r.CounterFunc("nakika_cache_hits_total", "", metrics.Labels{"tier": "disk"},
		func() float64 { return float64(n.cache.Stats().DiskHits) })
	r.CounterFunc("nakika_cache_misses_total", "Proxy cache misses.", nil,
		func() float64 { return float64(n.cache.Stats().Misses) })
	r.CounterFunc("nakika_cache_evictions_total", "Proxy cache evictions per tier.", metrics.Labels{"tier": "memory"},
		func() float64 { return float64(n.cache.Stats().Evictions) })
	r.CounterFunc("nakika_cache_evictions_total", "", metrics.Labels{"tier": "disk"},
		func() float64 { return float64(n.cache.Stats().Disk.Evictions) })
	r.GaugeFunc("nakika_cache_bytes", "Bytes held per tier: cached bodies in memory, segment files on disk.", metrics.Labels{"tier": "memory"},
		func() float64 { return float64(n.cache.Stats().Bytes) })
	r.GaugeFunc("nakika_cache_bytes", "", metrics.Labels{"tier": "disk"},
		func() float64 { return float64(n.cache.Stats().Disk.Bytes) })
	r.GaugeFunc("nakika_cache_arena_bytes", "The memory tier's key and body storage, off the Go heap: slots carved from its chunks (what is resident) and slots in use; carved over live is fragmentation, live over the memory tier's nakika_cache_bytes the keys and size-class rounding.", metrics.Labels{"state": "carved"},
		func() float64 { return float64(n.cache.Stats().Arena.Carved) })
	r.GaugeFunc("nakika_cache_arena_bytes", "", metrics.Labels{"state": "live"},
		func() float64 { return float64(n.cache.Stats().Arena.Live) })
	r.GaugeFunc("nakika_cache_entries", "Entries held per tier; nakika_cache_bytes over this is what an entry holds.", metrics.Labels{"tier": "memory"},
		func() float64 { return float64(n.cache.Stats().Entries) })
	r.GaugeFunc("nakika_cache_entries", "", metrics.Labels{"tier": "disk"},
		func() float64 { return float64(n.cache.Stats().Disk.Entries) })
	r.CounterFunc("nakika_cache_demotions_total", "Entries handed to the disk tier: a record appended, or none because the one on disk was current.", metrics.Labels{"result": "written"},
		func() float64 { return float64(n.cache.Stats().Disk.Stores) })
	r.CounterFunc("nakika_cache_demotions_total", "", metrics.Labels{"result": "clean"},
		func() float64 { return float64(n.cache.Stats().Disk.Clean) })
	help := "Conditional origin requests for a stale copy, by the tier that kept it and how they ended: a 304 that renewed it, a 304 the renewal rule refused, a new 200, no usable answer."
	for i, tier := range revalTiers {
		for j, result := range revalResults {
			r.CounterFunc("nakika_cache_revalidations_total", help, metrics.Labels{"tier": tier, "result": result}, cv(&n.revalidations[i][j]))
			help = ""
		}
	}
	r.GaugeFunc("nakika_cache_disk_segments", "Segment files in the disk tier's log.", nil,
		func() float64 { return float64(n.cache.Stats().Disk.Segments) })
	r.GaugeFunc("nakika_cache_disk_live_bytes", "Bytes of disk-tier records the index points at; the disk tier's nakika_cache_bytes over this is the log's space amplification.", nil,
		func() float64 { return float64(n.cache.Stats().Disk.LiveBytes) })

	r.CounterFunc("nakika_lob_streamed_total", "Responses served as lazy segment streams from the large-object tier.", nil, cv(&n.lobStreamed))
	r.CounterFunc("nakika_lob_ingests_total", "Objects chunked into the large-object tier, by how the body arrived.", metrics.Labels{"mode": "stream"}, cv(&n.lobStreamIng))
	r.CounterFunc("nakika_lob_ingests_total", "", metrics.Labels{"mode": "whole"}, cv(&n.lobWhole))
	r.CounterFunc("nakika_lob_adopted_total", "Manifests adopted from a holder's cache.get reply.", nil, cv(&n.lobAdopted))
	r.CounterFunc("nakika_lob_segment_fetches_total", "Missing segment bodies pulled in, by source.", metrics.Labels{"source": "peer"}, cv(&n.lobSegPeer))
	r.CounterFunc("nakika_lob_segment_fetches_total", "", metrics.Labels{"source": "origin"}, cv(&n.lobSegOrigin))
	r.CounterFunc("nakika_lob_ingest_waits_total", "Segment reads that waited on an ingest still in flight instead of fetching.", nil,
		func() float64 { return float64(n.LargeObject().Tier.IngestWaits) })
	r.CounterFunc("nakika_lob_slab_hits_total", "Slab reads that returned a verified segment.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Hits) })
	r.CounterFunc("nakika_lob_slab_misses_total", "Slab reads that found the segment absent or its record corrupt.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Misses) })
	r.CounterFunc("nakika_lob_slab_puts_total", "Segment records appended to the slab's log: first stores and carries forward.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Puts) })
	r.CounterFunc("nakika_lob_slab_evictions_total", "Segments lost from the slab with a reclaimed log segment.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Evictions) })
	r.GaugeFunc("nakika_lob_slab_slots", "Segments resident in the slab, and full segments its budget holds.", metrics.Labels{"state": "used"},
		func() float64 { return float64(n.LargeObject().Tier.Slab.Used) })
	r.GaugeFunc("nakika_lob_slab_slots", "", metrics.Labels{"state": "total"},
		func() float64 { return float64(n.LargeObject().Tier.Slab.Slots) })
	r.GaugeFunc("nakika_lob_slab_segments", "Segment files in the slab's log.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Segments) })
	r.GaugeFunc("nakika_lob_slab_bytes", "Bytes the slab's log files occupy.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.Bytes) })
	r.GaugeFunc("nakika_lob_slab_live_bytes", "Bytes of slab records the index points at; nakika_lob_slab_bytes over this is the log's space amplification.", nil,
		func() float64 { return float64(n.LargeObject().Tier.Slab.LiveBytes) })
	r.GaugeFunc("nakika_segment_index_bytes", "Memory each segment log's index maps, off the Go heap: the disk cache tier's and the large-object slab's.", metrics.Labels{"log": "cache"},
		func() float64 { return float64(n.cache.Stats().Disk.IndexBytes) })
	r.GaugeFunc("nakika_segment_index_bytes", "", metrics.Labels{"log": "lob"},
		func() float64 { return float64(n.LargeObject().Tier.Slab.IndexBytes) })

	r.CounterFunc("nakika_store_wal_appends_total", "Records appended to the hard-state WAL.", nil,
		func() float64 { return float64(n.StoreStats().Appends) })
	r.CounterFunc("nakika_store_fsync_batches_total", "Fsyncs issued by the WAL (group commit batches records per sync).", nil,
		func() float64 { return float64(n.StoreStats().Syncs) })
	r.CounterFunc("nakika_store_fence_rejects_total", "Writes refused at the store because their token fell below the durable fence floor.", nil,
		func() float64 { return float64(n.StoreStats().FenceRejects) })
	r.CounterFunc("nakika_store_compactions_total", "Completed snapshot/truncate cycles.", nil,
		func() float64 { return float64(n.StoreStats().Compactions) })
	r.GaugeFunc("nakika_store_wal_bytes", "Size of the active WAL file.", nil,
		func() float64 { return float64(n.StoreStats().WALBytes) })

	r.CounterFunc("nakika_replication_forwarded_ops_total", "Mutations routed to another acting owner.", nil, cv(&n.repForwarded))
	r.CounterFunc("nakika_replication_pushes_total", "Records peers accepted from this node's replication and repair pushes.", nil, cv(&n.repPushes))
	r.CounterFunc("nakika_replication_failover_reads_total", "Reads served by a successor after the routed owner was found dead.", nil, cv(&n.repFailovers))
	r.CounterFunc("nakika_replication_applied_total", "Records applied from peers that superseded the local copy.", nil, cv(&n.repApplied))
	r.CounterFunc("nakika_replication_version_ties_total", "Records from peers that tied the local record's version from another origin; last-writer-wins discards one of the two writes.", nil, cv(&n.repTies))
	r.CounterFunc("nakika_replication_unavailable_total", "State operations that failed because no owner or replica was reachable.", metrics.Labels{"op": "get"}, cv(&n.unavailGet))
	r.CounterFunc("nakika_replication_unavailable_total", "", metrics.Labels{"op": "put"}, cv(&n.unavailPut))
	r.CounterFunc("nakika_replication_unavailable_total", "", metrics.Labels{"op": "delete"}, cv(&n.unavailDel))

	r.CounterFunc("nakika_maintenance_rounds_total", "Maintenance rounds this node has run (Node.Maintain).", nil, cv(&n.maintRounds))
	r.GaugeFunc("nakika_replication_catchup_pending", "1 until this node's pull of its owned key range succeeds after boot or recovery, then 0.", nil,
		func() float64 {
			if n.catchUp.Load() {
				return 1
			}
			return 0
		})
	r.CounterFunc("nakika_replication_repairs_total", "Full replication repair passes, by what triggered them.", metrics.Labels{"trigger": "catchup"}, cv(&n.repairsCatchUp))
	r.CounterFunc("nakika_replication_repairs_total", "", metrics.Labels{"trigger": "churn"}, cv(&n.repairsChurn))
	r.CounterFunc("nakika_replication_repairs_total", "", metrics.Labels{"trigger": "periodic"}, cv(&n.repairsPeriodic))

	r.CounterFunc("nakika_offload_executed_total", "Requests run through this node's own pipeline.", nil, cv(&n.offExecuted))
	r.CounterFunc("nakika_offload_forwarded_total", "Requests shed to a less-loaded replica.", nil, cv(&n.offFwdOut))
	r.CounterFunc("nakika_offload_received_total", "Offloaded requests accepted from peers.", nil, cv(&n.offRecvIn))
	r.CounterFunc("nakika_offload_fallbacks_total", "Forwards that failed in transit and ran locally.", nil, cv(&n.offFallback))
	r.CounterFunc("nakika_offload_depth_cap_total", "Requests pinned to local execution by the forwarding-depth cap.", nil, cv(&n.offDepthCap))
	r.CounterFunc("nakika_hedged_reads_total", "Replicated reads diverted to the next replica by the hedge budget.", nil, cv(&n.hedged))
	r.CounterFunc("nakika_hedge_hits_total", "Hedged reads the hedge target answered.", nil, cv(&n.hedgeHits))

	r.CounterFunc("nakika_lease_acquired_total", "Fresh lease grants (including handovers).", nil, cv(&n.leaseAcquired))
	r.CounterFunc("nakika_lease_renewed_total", "Lease extensions keeping the token.", nil, cv(&n.leaseRenewed))
	r.CounterFunc("nakika_lease_released_total", "Early lease releases.", nil, cv(&n.leaseReleased))
	r.CounterFunc("nakika_lease_denied_total", "Acquires refused because a live holder held the lease.", nil, cv(&n.leaseDenied))
	r.CounterFunc("nakika_lease_handovers_total", "Lease grants over a previous holder, split by recovery path.", metrics.Labels{"path": "crash"}, cv(&n.leaseCrashHO))
	r.CounterFunc("nakika_lease_handovers_total", "", metrics.Labels{"path": "expiry"}, cv(&n.leaseExpiryHO))
	r.CounterFunc("nakika_lease_fenced_writes_total", "Fenced puts acknowledged.", nil, cv(&n.leaseFenced))
	r.CounterFunc("nakika_lease_fence_rejects_total", "Fenced puts refused because the holdership was deposed.", nil, cv(&n.leaseFenceRej))

	r.CounterFunc("nakika_deploys_total", "Script deployment operations on this node, by outcome.", metrics.Labels{"outcome": "applied"}, cv(&n.deployApplied))
	r.CounterFunc("nakika_deploys_total", "", metrics.Labels{"outcome": "rejected"}, cv(&n.deployRej))
	r.CounterFunc("nakika_deploys_total", "", metrics.Labels{"outcome": "rollback"}, cv(&n.deployRolled))
	r.CounterFunc("nakika_deploys_total", "", metrics.Labels{"outcome": "compile_error"}, cv(&n.deployCompErr))

	help = "Stage script fetches by outcome: a new stage compiled, the served one kept for unchanged bytes, a missing script (a 4xx, or a page where a site script was asked for), the last good stage kept serving past a failure, a failure with no stage to serve."
	for _, result := range pipeline.LoadResults {
		r.CounterFunc("nakika_stage_loads_total", help, metrics.Labels{"result": result}, func() float64 { return float64(n.loader.Loads(result)) })
		help = ""
	}
	r.CounterFunc("nakika_stage_refusals_total", "Requests refused with a 503 because a stage failed to load with no good stage to serve, by the stage's kind.", metrics.Labels{"kind": "wall"},
		func() float64 { wall, _ := n.executor.Refusals(); return float64(wall) })
	r.CounterFunc("nakika_stage_refusals_total", "", metrics.Labels{"kind": "site"},
		func() float64 { _, site := n.executor.Refusals(); return float64(site) })

	for reason := httpmsg.Reason(0); reason < httpmsg.NumReasons; reason++ {
		help := ""
		if reason == 0 {
			help = "Requests the HTTP/1.x ingress refused on the client or admin port, by reason."
		}
		r.CounterFunc("nakika_ingress_rejected_total", help, metrics.Labels{"reason": reason.String()}, cv(&n.ingress.rejected[reason]))
	}
	r.CounterFunc("nakika_ingress_panics_total", "Panics recovered while serving a client or admin connection; each closed its connection.", nil, cv(&n.ingress.panics))

	up, _ := n.cfg.Upstream.(*HTTPFetcher)
	if up == nil {
		up = new(HTTPFetcher) // an injected upstream: the series read zero
	}
	r.CounterFunc("nakika_upstream_connections_total", "Origin connections by event: dialed, an idle one reused, a request sent again on a fresh one after a reused one failed.", metrics.Labels{"event": "dial"}, cv(&up.dials))
	r.CounterFunc("nakika_upstream_connections_total", "", metrics.Labels{"event": "reuse"}, cv(&up.reuses))
	r.CounterFunc("nakika_upstream_connections_total", "", metrics.Labels{"event": "retry"}, cv(&up.retries))
	r.GaugeFunc("nakika_upstream_idle_connections", "Origin connections idle in the keep-alive pool.", nil, cv(&up.idleConns))

	mux := func(field func(transport.TCPStats) int64) func() float64 {
		return func() float64 {
			tcp, ok := n.tr.(*transport.TCP) // set after the registry is built
			if !ok {
				return 0 // no peer transport, or not the mux: the series read zero
			}
			return float64(field(tcp.Stats()))
		}
	}
	r.GaugeFunc("nakika_transport_calls_in_flight", "Peer calls sent and not yet answered, failed or timed out.", nil,
		mux(func(s transport.TCPStats) int64 { return s.CallsInFlight }))
	r.CounterFunc("nakika_transport_call_timeouts_total", "Peer calls that ran out of the call timeout.", nil,
		mux(func(s transport.TCPStats) int64 { return s.CallTimeouts }))
	r.CounterFunc("nakika_transport_dials_total", "Connections dialed to peers, failed handshakes included.", nil,
		mux(func(s transport.TCPStats) int64 { return s.Dials }))
	r.CounterFunc("nakika_transport_frames_total", "Mux frames written to peers, requests and replies.", nil,
		mux(func(s transport.TCPStats) int64 { return s.Frames }))
	r.CounterFunc("nakika_transport_writes_total", "Socket writes that carried those frames; frames over writes is the corking batch size.", nil,
		mux(func(s transport.TCPStats) int64 { return s.Writes }))

	r.GaugeFunc("nakika_load_score", "The node's load score (in-flight requests plus decayed recent work).", nil, n.LoadScore)

	// The Go runtime's own counters, process-wide: what the request path
	// costs the collector.
	r.CounterFunc("nakika_go_gc_cycles_total", "Garbage-collection cycles the process has completed.", nil,
		runtimeCounter("/gc/cycles/total:gc-cycles"))
	r.CounterFunc("nakika_go_heap_alloc_bytes_total", "Bytes the process has allocated on the heap.", nil,
		runtimeCounter("/gc/heap/allocs:bytes"))

	if ov := n.overlay; ov != nil {
		r.CounterFunc("nakika_overlay_lookups_total", "Overlay routing lookups this node started.", nil,
			func() float64 { return float64(ov.Stats().Lookups) })
		r.GaugeFunc("nakika_overlay_view_digest", "FNV-1a hash of the ring's members and the members this node suspects; equal on two nodes that agree on every key's owner.", nil,
			func() float64 { return float64(ov.ViewDigest()) })
		r.GaugeFunc("nakika_overlay_index_keys", "Cache keys with a live entry in this node's slice of the cooperative-cache index.", nil,
			func() float64 { return float64(ov.Stats().IndexKeys) })
		r.GaugeFunc("nakika_overlay_publishes_pending", "Cooperative-cache publishes that failed and await the next maintenance round's retry.", nil,
			func() float64 { return float64(n.publishesPending()) })
	}

	n.latency = r.NewHistogramSeries("nakika_request_seconds", "End-to-end request latency at this node.", nil, metrics.DefBuckets)
	n.reg = r
}

// runtimeCounter reads one cumulative uint64 metric of the Go runtime at
// scrape time, into a sample it keeps: the registry renders one scrape at a
// time, so the sample is never read twice at once.
func runtimeCounter(name string) func() float64 {
	s := []rtmetrics.Sample{{Name: name}}
	return func() float64 {
		rtmetrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
}
