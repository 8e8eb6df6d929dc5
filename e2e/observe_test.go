//go:build e2e

package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nakika/internal/admin"
	"nakika/internal/metrics"
)

// The observability e2e scenario: a live 4-process cluster under a
// concurrent burst must serve a valid Prometheus exposition covering
// every subsystem on each node's admin listener, /admin/traces must show
// a cross-node request — the ingress's offloaded sample and the
// executing peer's sample joined by one trace id — and SIGTERM must
// drain the admin listener gracefully: an in-flight profile completes,
// then the port closes with the rest of the process.

// requiredSeries is the metric families every node's exposition must
// cover: core request counters, both cache tiers, the large-object tier,
// the store/WAL, replication, maintenance, offload/hedging, leases, the
// load view, and the Go runtime's collector.
var requiredSeries = []string{
	"nakika_requests_total",
	"nakika_fetches_total",
	"nakika_generated_responses_total",
	"nakika_cache_hits_total",
	"nakika_cache_misses_total",
	"nakika_cache_bytes",
	"nakika_cache_entries",
	"nakika_cache_arena_bytes",
	"nakika_cache_demotions_total",
	"nakika_cache_disk_segments",
	"nakika_cache_disk_live_bytes",
	"nakika_lob_streamed_total",
	"nakika_lob_slab_hits_total",
	"nakika_lob_slab_slots",
	"nakika_lob_slab_segments",
	"nakika_lob_slab_bytes",
	"nakika_lob_slab_live_bytes",
	"nakika_segment_index_bytes",
	"nakika_store_wal_appends_total",
	"nakika_store_fsync_batches_total",
	"nakika_store_fence_rejects_total",
	"nakika_replication_forwarded_ops_total",
	"nakika_replication_pushes_total",
	"nakika_replication_unavailable_total",
	"nakika_replication_version_ties_total",
	"nakika_replication_catchup_pending",
	"nakika_replication_repairs_total",
	"nakika_replication_sync_records_total",
	"nakika_replication_sync_buckets_differing_total",
	"nakika_overlay_publishes_pending",
	"nakika_overlay_view_digest",
	"nakika_maintenance_rounds_total",
	"nakika_offload_executed_total",
	"nakika_offload_forwarded_total",
	"nakika_hedged_reads_total",
	"nakika_lease_acquired_total",
	"nakika_lease_handovers_total",
	"nakika_load_score",
	"nakika_go_gc_cycles_total",
	"nakika_go_heap_alloc_bytes_total",
	"nakika_ingress_rejected_total",
	"nakika_ingress_panics_total",
	"nakika_upstream_connections_total",
	"nakika_upstream_idle_connections",
	"nakika_transport_calls_in_flight",
	"nakika_transport_call_timeouts_total",
	"nakika_transport_dials_total",
	"nakika_transport_frames_total",
	"nakika_transport_writes_total",
	"nakika_request_seconds",
}

// adminGet fetches one admin endpoint of a node.
func adminGet(addr, path string) (int, string, error) {
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(body), nil
}

// viewDigest reads a node's nakika_overlay_view_digest sample.
func viewDigest(addr string) (string, error) {
	status, body, err := adminGet(addr, "/metrics")
	if err != nil || status != 200 {
		return "", fmt.Errorf("/metrics: status %d, err %v", status, err)
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "nakika_overlay_view_digest "); ok {
			return v, nil
		}
	}
	return "", fmt.Errorf("no nakika_overlay_view_digest sample")
}

// dumpTraces fetches and decodes a node's /admin/traces.
func dumpTraces(addr string, n int) (admin.TraceDump, error) {
	var dump admin.TraceDump
	status, body, err := adminGet(addr, "/admin/traces?n="+strconv.Itoa(n))
	if err != nil {
		return dump, err
	}
	if status != 200 {
		return dump, fmt.Errorf("/admin/traces status %d", status)
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		return dump, fmt.Errorf("traces dump does not parse: %v", err)
	}
	return dump, nil
}

// scrapeSamples reads a node's /metrics and returns its unlabelled
// samples by series name.
func scrapeSamples(addr string) (map[string]float64, error) {
	status, body, err := adminGet(addr, "/metrics")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("/metrics: status %d, err %v", status, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// TestTransportSeriesAfterReplicatedWrite reads the mux transport's series
// on a 3-node cluster after a replicated write: a registration is a
// State.put at the key's owner, pushed to both replicas over the mux. Every
// frame goes out in some corked write, so frames >= writes, and the write
// put frames on the wire, so writes > 0. No node fails, so no two owners
// write one version: every node counts 0 version ties.
func TestTransportSeriesAfterReplicatedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	c := startCluster(t, 3)
	status, body, err := proxyGet(c.httpAddr[0], c.originHost, "/cgi-bin/register?user=transport-user")
	if err != nil || !edgeRegistered(status, body) {
		t.Fatalf("register via edge-0: status %d, err %v, body %q", status, err, body)
	}
	var frames, writes float64
	for i := range c.nodes {
		m, err := scrapeSamples(c.adminAddr[i])
		if err != nil {
			t.Fatalf("edge-%d: %v", i, err)
		}
		f, w := m["nakika_transport_frames_total"], m["nakika_transport_writes_total"]
		if f < w {
			t.Errorf("edge-%d: %v frames in %v writes; every write carries at least one frame", i, f, w)
		}
		if m["nakika_transport_dials_total"] == 0 {
			t.Errorf("edge-%d dialed no peer", i)
		}
		if v := m["nakika_replication_version_ties_total"]; v != 0 {
			t.Errorf("edge-%d counted %v version ties in a run without failures, want 0", i, v)
		}
		frames += f
		writes += w
	}
	if writes == 0 || frames < writes {
		t.Fatalf("cluster: %v frames in %v writes after a replicated write, want frames >= writes > 0", frames, writes)
	}
	t.Logf("cluster: %v frames in %v writes (%.2f frames per write)", frames, writes, frames/writes)
}

func TestAdminSurfaceOnLiveClusterMidBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	// Offload enabled with a threshold the concurrent ingress burst
	// exceeds, so requests shed to less-loaded peers and leave cross-node
	// traces.
	c := startCluster(t, 4, "-offload-threshold", "1.0")
	nodes := len(c.nodes)
	const ingress = 0

	// After boot and before any kill, every node holds the same view: the
	// same members and no suspect. A node whose first ping round ran before
	// a peer listened suspects it until its next round, 5 s later, so the
	// check polls across two rounds.
	var digests []string
	for deadline := time.Now().Add(12 * time.Second); ; time.Sleep(250 * time.Millisecond) {
		digests = digests[:0]
		for i := 0; i < nodes; i++ {
			d, err := viewDigest(c.adminAddr[i])
			if err != nil {
				t.Fatalf("edge-%d: %v", i, err)
			}
			digests = append(digests, d)
		}
		agree := true
		for _, d := range digests {
			agree = agree && d == digests[0]
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view digests differ after boot: %v", digests)
		}
	}

	// The burst: concurrent clients hammering the one ingress node with
	// registrations and profile reads — the flash crowd that drives its
	// load score over the offload threshold.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				user := fmt.Sprintf("obs-user-%d-%03d", w, i%40)
				_, _, _ = proxyGet(c.httpAddr[ingress], c.originHost, "/cgi-bin/register?user="+user)
				_, _, _ = proxyGet(c.httpAddr[ingress], c.originHost, "/cgi-bin/profile?user="+user)
			}
		}(w)
	}
	defer func() {
		// Idempotent: the happy path already closed it below.
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()

	// Mid-burst, every node's /metrics must be a parseable exposition
	// covering every required subsystem family. Retry briefly: the
	// counters exist from boot, so one scrape per node suffices once the
	// listeners are up (they are — waitServing passed).
	for i := 0; i < nodes; i++ {
		status, body, err := adminGet(c.adminAddr[i], "/metrics")
		if err != nil || status != 200 {
			t.Fatalf("edge-%d /metrics: status %d, err %v", i, status, err)
		}
		families, err := metrics.ParseExposition(body)
		if err != nil {
			t.Fatalf("edge-%d exposition does not parse: %v\n%.2000s", i, err, body)
		}
		for _, name := range requiredSeries {
			if !families[name] {
				t.Fatalf("edge-%d exposition missing required series %s", i, name)
			}
		}
	}

	// The cross-node trace: poll the ingress's slowest-requests dump for
	// an offloaded sample, then require the executing peer's own dump to
	// hold a sample with the same trace id. The load view that gates
	// offload fills in on the 5s maintenance ticks, so this needs a
	// couple of cycles under load.
	deadline := time.Now().Add(75 * time.Second)
	linked := false
	var lastState string
	for !linked && time.Now().Before(deadline) {
		ingDump, err := dumpTraces(c.adminAddr[ingress], 64)
		if err != nil {
			t.Fatalf("ingress traces: %v", err)
		}
		offloaded := 0
		for _, s := range ingDump.Samples {
			if !s.Offloaded || s.OffloadPeer == "" || s.TraceID == "" {
				continue
			}
			offloaded++
			var peerIdx int
			if _, err := fmt.Sscanf(s.OffloadPeer, "edge-%d", &peerIdx); err != nil || peerIdx < 0 || peerIdx >= nodes {
				continue
			}
			peerDump, err := dumpTraces(c.adminAddr[peerIdx], 64)
			if err != nil {
				t.Fatalf("peer %s traces: %v", s.OffloadPeer, err)
			}
			for _, ps := range peerDump.Samples {
				if ps.TraceID == s.TraceID && ps.Node == s.OffloadPeer {
					linked = true
					break
				}
			}
			if linked {
				break
			}
		}
		lastState = fmt.Sprintf("%d samples at ingress, %d offloaded", len(ingDump.Samples), offloaded)
		if !linked {
			time.Sleep(500 * time.Millisecond)
		}
	}
	if !linked {
		t.Fatalf("no cross-node trace (ingress offload sample + peer sample sharing a trace id) within the deadline; %s (ingress log:\n%s)",
			lastState, c.nodes[ingress].logTail(20))
	}

	// statusz responds, and the heap profile is servable; persist it for
	// the CI artifact when a destination is set.
	if status, body, err := adminGet(c.adminAddr[ingress], "/admin/statusz"); err != nil || status != 200 || !strings.Contains(body, "edge-0") {
		t.Fatalf("/admin/statusz: status %d, err %v", status, err)
	}
	status, heap, err := adminGet(c.adminAddr[ingress], "/debug/pprof/heap")
	if err != nil || status != 200 || len(heap) == 0 {
		t.Fatalf("/debug/pprof/heap: status %d, %d bytes, err %v", status, len(heap), err)
	}
	if dest := os.Getenv("E2E_HEAP_PROFILE"); dest != "" {
		if err := os.WriteFile(dest, []byte(heap), 0o644); err != nil {
			t.Fatalf("writing heap profile artifact: %v", err)
		}
	}

	close(stop)
	wg.Wait()

	// SIGTERM drain: open a long-running admin request (a 2s CPU profile)
	// against a non-ingress node, then signal it mid-flight. Graceful
	// shutdown must let the profile complete before the listener closes,
	// then the process exits having flushed its store.
	const victim = 3
	profDone := make(chan error, 1)
	go func() {
		status, body, err := adminGet(c.adminAddr[victim], "/debug/pprof/profile?seconds=2")
		if err != nil {
			profDone <- err
			return
		}
		if status != 200 || len(body) == 0 {
			profDone <- fmt.Errorf("in-flight profile: status %d, %d bytes", status, len(body))
			return
		}
		profDone <- nil
	}()
	time.Sleep(300 * time.Millisecond)
	if err := c.nodes[victim].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM edge-%d: %v", victim, err)
	}
	select {
	case err := <-profDone:
		if err != nil {
			t.Fatalf("admin request in flight at SIGTERM did not drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight admin profile never completed after SIGTERM")
	}
	exited := make(chan struct{})
	go func() { _, _ = c.nodes[victim].cmd.Process.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		t.Fatalf("edge-%d did not exit after SIGTERM (log:\n%s)", victim, c.nodes[victim].logTail(20))
	}
	if tail := c.nodes[victim].logTail(5); !strings.Contains(tail, "store flushed, bye") {
		t.Fatalf("edge-%d did not shut down gracefully; log tail:\n%s", victim, tail)
	}
	if conn, err := net.DialTimeout("tcp", c.adminAddr[victim], 2*time.Second); err == nil {
		conn.Close()
		t.Fatalf("edge-%d admin port still accepting connections after shutdown", victim)
	}
}
