package main

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root repeats these lists; a test keeps the two in step.
type metricSpec struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
	// what is the glossary line printed beside the value.
	what string
}

// endToEnd are the gated metrics: what a site owner sees of a node
// (memory held, origin load taken away) and the benchmark's own set-up
// time. Every workload reports all of them, always from the untraced
// multi-process window.
//
// ISSUE 13's other end-to-end metrics (req_per_s, p50_us, p90_us,
// ttfb_p50_us, node_cpu_us_per_req, node_rss_peak_mb) are not here. The
// issue's rule is that a metric whose spread between identical runs
// exceeds its bound is demoted to a layer metric, and that no bound is
// widened past 10%. On the shared two-core sandbox every time-based one
// spreads by more than that on some workload, and the VmHWM peak on
// large_range is a spike of the collector's timing (CALIBRATION.md). So
// they head the per-layer list, under the issue's names: unresolved on
// this host rather than gated loosely. setup_s stays because the
// benchmark contract requires it, with the largest bound as the contract
// advises; node_rss_mb takes the peak's place with a statistic that
// repeats.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "first spawn to end of the fixed warm-up, less the time the host had taken the two CPUs away (steal, /proc/stat); median of the run's set-ups"},
	{"node_rss_mb", "MB", "lower", 0.10, "P: resident set summed over the nakikad processes, read at every hundredth of the window's op sequence; median of the readings"},
	{"origin_offload_share", "ratio", "higher", 0.05, "S: share of client requests answered without an upstream fetch (1 - nakika_fetches_total{source=origin} / correct responses)"},
}

// perLayer are ISSUE 13's ungated end-to-end metrics, then the metrics
// of single layers: this repository's packages, plus client, net, origin,
// node and host for what surrounds them. The source
// is in the glossary: S = /metrics deltas over the window, P = /proc and
// the generator's own counters, T = the traced in-process pass, L = an
// isolated loop replaying the workload's inputs into one layer. A layer
// that is not on a workload's path reports 0 there.
var perLayer = []metricSpec{
	{name: "req_per_s", unit: "1/s", better: "higher", what: "P: the window cut into 5 slices of equal response count; median of the slice rates; correct responses only"},
	{name: "p50_us", unit: "us", better: "lower", what: "P: median full-response latency over the window"},
	{name: "p90_us", unit: "us", better: "lower", what: "P: 90th percentile latency, same samples"},
	{name: "ttfb_p50_us", unit: "us", better: "lower", what: "P: median request-write to first response byte"},
	{name: "node_cpu_us_per_req", unit: "us", better: "lower", what: "P: utime+stime of all nakikad processes over the window per correct response"},
	{name: "node_rss_peak_mb", unit: "MB", better: "lower", what: "P: sum of VmHWM over the nakikad processes at window end"},

	{name: "client.p99_us", unit: "us", better: "lower", what: "P: 99th percentile latency (ungated: on two shared cores it reports the scheduler)"},
	{name: "client.p999_us", unit: "us", better: "lower", what: "P: 99.9th percentile latency (ungated)"},
	{name: "client.max_us", unit: "us", better: "lower", what: "P: slowest correct response"},
	{name: "client.samples", unit: "count", better: "higher", what: "P: correct responses behind the latency figures"},
	{name: "client.read_p50_us", unit: "us", better: "lower", what: "P: median latency of State.get requests (state_rw)"},
	{name: "client.write_p50_us", unit: "us", better: "lower", what: "P: median latency of State.put requests (state_rw)"},
	{name: "client.html_p50_us", unit: "us", better: "lower", what: "P: median latency of edge-rendered pages (simm_render)"},
	{name: "client.media_p50_us", unit: "us", better: "lower", what: "P: median latency of cached media (simm_render)"},
	{name: "client.gen_cpu_us_per_req", unit: "us", better: "lower", what: "P: the generator's own CPU per request; must stay well under node_cpu_us_per_req"},

	{name: "net.overhead_us", unit: "us", better: "lower", what: "T: median of client span - core.serve_http span: socket plus net/http server"},

	{name: "core.serve_http_us", unit: "us", better: "lower", what: "T: median span of the http.Handler around the node"},
	{name: "core.serve_http_self_us", unit: "us", better: "lower", what: "T: median of that span minus the child spans it covers"},
	{name: "core.handle_ns_per_req", unit: "ns", better: "lower", what: "L: Node.Handle on the replayed requests"},
	{name: "core.handle_allocs_per_req", unit: "count", better: "lower", what: "L: allocations per Node.Handle"},
	{name: "core.fetch_us_per_req", unit: "us", better: "lower", what: "L: mean 'origin' span of the returned trace (cache tiers, coalescing, upstream)"},
	{name: "core.fetch_cache_share", unit: "ratio", better: "higher", what: "S: fetches served from the node's own tiers"},
	{name: "core.fetch_peer_share", unit: "ratio", better: "higher", what: "S: fetches served from a peer's cache"},
	{name: "core.fetch_origin_share", unit: "ratio", better: "lower", what: "S: fetches that went upstream"},
	{name: "core.fetch_coalesced_share", unit: "ratio", better: "higher", what: "S: fetches that joined another request's flight"},
	{name: "core.origin_fetches_per_kreq", unit: "count", better: "lower", what: "S: upstream fetches per 1000 client requests"},
	{name: "core.rejected_share", unit: "ratio", better: "lower", what: "S: requests refused by admission control"},
	{name: "core.errors", unit: "count", better: "lower", what: "S: requests that failed with an error"},
	{name: "core.rep_pushes_per_write", unit: "count", better: "lower", what: "S: replica records peers accepted per State.put (state_rw)"},
	{name: "core.rep_forwarded_share", unit: "ratio", better: "lower", what: "S: State.puts routed to another acting owner (state_rw)"},

	{name: "httpmsg.parse_ns_per_req", unit: "ns", better: "lower", what: "L: AcquireFromHTTPRequest + Release"},
	{name: "httpmsg.parse_allocs_per_req", unit: "count", better: "lower", what: "L: allocations per parse"},
	{name: "httpmsg.write_ns_per_resp", unit: "ns", better: "lower", what: "L: Response.WriteToMethod to a discarding writer"},
	{name: "httpmsg.write_allocs_per_resp", unit: "count", better: "lower", what: "L: allocations per response write"},
	{name: "httpmsg.range_ns_per_req", unit: "ns", better: "lower", what: "L: ApplyRange on the workload's requests"},
	{name: "httpmsg.codec_ns_per_resp", unit: "ns", better: "lower", what: "L: peer-transfer encode + decode of the workload's responses"},

	{name: "policy.match_ns_per_req", unit: "ns", better: "lower", what: "L: Tree.Match of the site's policies over the workload's URLs"},

	{name: "pipeline.execute_ns_per_req", unit: "ns", better: "lower", what: "L: Executor.Execute with a zero-latency stub fetcher"},
	{name: "pipeline.execute_allocs_per_req", unit: "count", better: "lower", what: "L: allocations per Execute"},
	{name: "pipeline.self_us_per_req", unit: "us", better: "lower", what: "L: Trace.Elapsed minus handler spans and the origin span"},
	{name: "pipeline.stages_per_req", unit: "count", better: "lower", what: "L: stages per request"},
	{name: "pipeline.handlers_per_req", unit: "count", better: "lower", what: "L: script handlers run per request"},

	{name: "script.handler_us_per_req", unit: "us", better: "lower", what: "L: sum of handler spans per request (script + vocabulary, stub fetcher)"},
	{name: "script.handler_allocs_per_req", unit: "count", better: "lower", what: "L: Execute allocations with the site script minus without it"},
	{name: "script.compile_us", unit: "us", better: "lower", what: "L: Loader.Compile of the site's nakika.js"},

	{name: "cache.l1_hit_ratio", unit: "ratio", better: "higher", what: "S: lookups answered by the memory tier"},
	{name: "cache.l2_hit_ratio", unit: "ratio", better: "higher", what: "S: lookups answered by the disk tier"},
	{name: "cache.miss_ratio", unit: "ratio", better: "lower", what: "S: lookups that missed both tiers"},
	{name: "cache.evictions_per_kreq", unit: "count", better: "lower", what: "S: memory-tier evictions per 1000 requests"},
	{name: "cache.disk_evictions_per_kreq", unit: "count", better: "lower", what: "S: disk-tier evictions per 1000 requests"},
	{name: "cache.get_ns_per_op", unit: "ns", better: "lower", what: "L: Cache.Get replaying the key sequence at default capacity"},
	{name: "cache.put_ns_per_op", unit: "ns", better: "lower", what: "L: Cache.Put on the misses of that replay"},
	{name: "cache.get_allocs_per_op", unit: "count", better: "lower", what: "L: allocations per Cache.Get"},
	{name: "cache.disk_get_us_per_op", unit: "us", better: "lower", what: "L: cache.Disk.Get on a temporary directory"},
	{name: "cache.disk_put_us_per_op", unit: "us", better: "lower", what: "L: cache.Disk.Put on a temporary directory"},
	{name: "cache.disk_write_kb_per_req", unit: "KB", better: "lower", what: "T: bytes written under cache/ per request"},

	{name: "largeobject.slab_get_us_per_seg", unit: "us", better: "lower", what: "L: Slab.Get of a 256 KiB segment"},
	{name: "largeobject.slab_put_us_per_seg", unit: "us", better: "lower", what: "L: Slab.Put of a 256 KiB segment"},
	{name: "largeobject.range_read_mb_per_s", unit: "MB/s", better: "higher", what: "L: the workload's ranges read through a tier stream"},
	{name: "largeobject.ingest_mb_per_s", unit: "MB/s", better: "higher", what: "L: Tier.IngestBody"},
	{name: "largeobject.segments_per_req", unit: "count", better: "lower", what: "L: segments of the object behind each streamed response"},
	{name: "largeobject.resident_ratio", unit: "ratio", better: "higher", what: "L: share of those segments held locally"},

	{name: "store.appends_per_write", unit: "count", better: "lower", what: "S: WAL records per State.put, all nodes"},
	{name: "store.fsyncs_per_write", unit: "count", better: "lower", what: "S: fsyncs per State.put, all nodes"},
	{name: "store.wal_bytes_per_write", unit: "B", better: "lower", what: "S: WAL growth per State.put, all nodes"},
	{name: "store.fsync_us_p50", unit: "us", better: "lower", what: "T: median File.Sync; the sandbox's disk, not hardware truth"},
	{name: "store.fsync_share_of_write", unit: "ratio", better: "lower", what: "T: share of write requests' time covered by File.Sync"},
	{name: "store.append_sync_us_per_op", unit: "us", better: "lower", what: "L: Log.Put on a temporary directory, one writer"},

	{name: "state.put_us_per_op", unit: "us", better: "lower", what: "L: Node.StatePut, single node with a data directory"},
	{name: "state.get_ns_per_op", unit: "ns", better: "lower", what: "L: Node.StateGet, same node"},

	{name: "transport.rpcs_per_req", unit: "count", better: "lower", what: "T: Transport.Call per client request"},
	{name: "transport.rpc_wait_us_per_req", unit: "us", better: "lower", what: "T: time inside Transport.Call per client request"},
	{name: "transport.bytes_per_rpc", unit: "B", better: "lower", what: "T: request plus reply payload per call"},
	{name: "transport.rpc_rtt_us", unit: "us", better: "lower", what: "L: mux Call echo over loopback, one caller"},

	{name: "overlay.locate_us_per_op", unit: "us", better: "lower", what: "L: Locate on a 3-node ring over TCP"},
	{name: "overlay.rpcs_per_locate", unit: "count", better: "lower", what: "L: hops per Locate"},

	{name: "resource.admit_ns_per_req", unit: "ns", better: "lower", what: "L: Manager.Admit"},

	{name: "observe.handle_delta_ns_per_req", unit: "ns", better: "lower", what: "L: core.handle_ns_per_req with the observability plane on minus off"},

	{name: "origin.requests_per_kreq", unit: "count", better: "lower", what: "P: write system calls of the origin process per 1000 client requests: one per response that fits net/http's 4 KiB buffer, more for larger ones"},
	{name: "origin.busy_us_per_req", unit: "us", better: "lower", what: "P: origin process CPU per client request"},
	{name: "origin.bytes_per_req", unit: "B", better: "lower", what: "P: bytes the origin process wrote per client request"},

	{name: "node.cpu_user_us_per_req", unit: "us", better: "lower", what: "P: user share of node_cpu_us_per_req"},
	{name: "node.cpu_sys_us_per_req", unit: "us", better: "lower", what: "P: system share of node_cpu_us_per_req"},
	{name: "node.ctx_switches_per_req", unit: "count", better: "lower", what: "P: context switches of all node threads per request"},
	{name: "node.disk_write_kb_per_req", unit: "KB", better: "lower", what: "P: bytes sent to the storage layer per request"},
	{name: "node.threads", unit: "count", better: "lower", what: "P: OS threads of all nodes at window end"},

	{name: "host.steal_share", unit: "ratio", better: "lower", what: "P: share of the window's time on the two pinned CPUs that the hypervisor kept them from running (steal, /proc/stat); not the program's doing, but every timing above moves with it"},

	{name: "trace.overhead_pct", unit: "%", better: "lower", what: "T: traced median latency over untraced, one connection, same ops"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower", what: "T: root self time no child span covers"},
}

// metricSet is a name-indexed bag of values being filled in for a run.
type metricSet map[string]float64
