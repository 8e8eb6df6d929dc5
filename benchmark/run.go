package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// runConfig is what one workload run needs from the command line.
type runConfig struct {
	// start brings up the topology the window is measured against.
	start   starter
	workDir string // scratch for logs and data directories; removed on exit
	outDir  string // where trace-<workload>.json goes
	seed    int64
	seconds int
	// setups is how many times the topology is set up from nothing
	// (processes, empty data directories, the fixed warm-up). setup_s is
	// the median over them; the window is measured on the last one.
	setups int
	// layers adds the per-layer passes: the traced in-process pass and the
	// isolated layer loops.
	layers bool
	// windowOps overrides the calibrated window length (tests).
	windowOps int
}

// runResult is one workload's report.
type runResult struct {
	workload  string
	attempted int
	failed    int
	// problems lists what made the run incorrect (empty when correct).
	problems []string
	// notes are printed in the human report only.
	notes   []string
	metrics metricSet
}

func (r *runResult) correct() bool { return len(r.problems) == 0 }

// measuredSetups is the number of set-ups behind setup_s in a run that
// reports the end-to-end metrics. A third was tried and dropped: once
// stolen time is taken out, what moves setup_s is the host's mood over
// minutes, which is the same for every set-up of a run, and each set-up
// costs 2-5 s of the driver's time limit.
const measuredSetups = 2

// maxFailedShare is the share of a window's ops that may fail before the
// command exits non-zero.
const maxFailedShare = 0.001

// setUp brings the topology up from nothing and runs the fixed warm-up.
// It returns the running topology, how long set-up took on the clock,
// from just before the first spawn to the end of the warm-up, and how
// much of that the hypervisor had taken the two CPUs away (seconds).
func setUp(cfg runConfig, w *workload, a addrs, nth int, warm []op, warmReqs [][]byte) (c topology, took, stolen float64, err error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.name, nth))
	start, stolenBefore := time.Now(), stolenSeconds()
	if c, err = cfg.start(w, a, dir); err != nil {
		return nil, 0, 0, err
	}
	err = warmUp(w, a, warm, warmReqs)
	took, stolen = time.Since(start).Seconds(), stolenSeconds()-stolenBefore
	if err != nil {
		tails := c.logTails(15)
		c.stop()
		return nil, 0, 0, fmt.Errorf("%s warm-up: %w\n%s", w.name, err, tails)
	}
	return c, took, stolen, nil
}

// warmUp runs w's fixed warm-up against the topology at a: the readiness
// probe if the workload has one, the leading solo ops on one connection,
// then the rest on all of them. Every response is checked.
func warmUp(w *workload, a addrs, warm []op, reqs [][]byte) error {
	if w.readyProbe != nil {
		if err := waitAnswering(a, *w.readyProbe); err != nil {
			return err
		}
	}
	for _, part := range []struct{ from, to, conns int }{{0, w.soloWarm, 1}, {w.soloWarm, len(warm), loadConnections}} {
		if part.from == part.to {
			continue
		}
		res, err := runOps(a.http, warm[part.from:part.to], reqs[part.from:part.to], load{conns: part.conns, failAfter: time.Minute})
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("%d of %d warm-up requests failed; first: %s", res.failed, res.attempts, res.firstFailure)
		}
	}
	return nil
}

// waitAnswering polls every entry node with probe until each answers it
// correctly.
func waitAnswering(a addrs, probe op) error {
	req := probe.render(a.origin)
	deadline := time.Now().Add(20 * time.Second)
	for _, addr := range a.http {
		cc, err := dialClient(addr)
		if err != nil {
			return err
		}
		defer cc.close()
		for {
			status, body, _, _, err := cc.do(req, deadline)
			if err == nil && probe.check(status, body) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s never answered the readiness probe: %s", addr, describeFailure(probe, status, body, err))
			}
			time.Sleep(readinessPoll)
		}
	}
	return nil
}

// counters are the readings taken around a window, outside it.
type counters struct {
	metrics             scrape
	nodes, origin, self procSample
}

func readCounters(c topology) (counters, error) {
	var k counters
	var err error
	if k.metrics, err = c.scrape(); err != nil {
		return k, fmt.Errorf("scrape: %w", err)
	}
	if k.origin, err = readProc(c.originPID()); err != nil {
		return k, err
	}
	if k.self, err = readProc(os.Getpid()); err != nil {
		return k, err
	}
	k.nodes, err = readProcs(c.nodePIDs())
	return k, err
}

// measured is one window with the counter deltas taken around it.
type measured struct {
	window              windowResult
	metrics             scrape     // /metrics deltas
	nodes, origin, self procSample // /proc deltas; nodes.hwmKB and nodes.threads are the readings at window end
	rssMB               []float64  // the nodes' summed resident set, read rssReadings times through the window
	stolen              float64    // seconds the hypervisor kept the two CPUs from running during the window
}

// rssReadings is how many times the nodes' resident set is read during a
// window: at every rssReadings-th part of the op sequence, not of the
// time, because a node's memory follows the requests it has served (see
// the access-log finding in README.md) and a reading taken by the clock
// would move with the host's speed.
const rssReadings = 100

// measureWindow drives the window against a warmed topology, bracketed by
// counter readings taken outside it.
func measureWindow(c topology, httpAddrs []string, ops []op, reqs [][]byte, drive load) (measured, error) {
	var got measured
	before, err := readCounters(c)
	if err != nil {
		return got, err
	}
	pids, every := c.nodePIDs(), max(1, len(ops)/rssReadings)
	var mu sync.Mutex
	drive.before = func(i int) {
		if i%every == 0 {
			mb := residentMB(pids)
			mu.Lock()
			got.rssMB = append(got.rssMB, mb)
			mu.Unlock()
		}
	}
	stolenBefore := stolenSeconds()
	if got.window, err = runOps(httpAddrs, ops, reqs, drive); err != nil {
		return got, err
	}
	got.stolen = stolenSeconds() - stolenBefore
	after, err := readCounters(c)
	if err != nil {
		return got, err
	}
	got.metrics = after.metrics.delta(before.metrics)
	got.nodes, got.origin, got.self = after.nodes.sub(before.nodes), after.origin.sub(before.origin), after.self.sub(before.self)
	return got, nil
}

// runWorkload runs one workload end to end: the set-ups, the measured
// multi-process window on the last of them and, when asked, the
// per-layer passes.
func runWorkload(cfg runConfig, w *workload) (runResult, error) {
	out := runResult{workload: w.name, metrics: make(metricSet)}
	n := cfg.windowOps
	if n <= 0 {
		n = w.opsPerSecond * cfg.seconds
	}
	warm, window := w.generate(w, cfg.seed, n)
	a, err := reserveAddrs(w.nodes)
	if err != nil {
		return out, err
	}
	warmReqs, windowReqs := renderAll(warm, a.origin), renderAll(window, a.origin)
	nominal := time.Duration(cfg.seconds) * time.Second
	drive := load{conns: loadConnections, failAfter: windowFailFactor * nominal, stopAfter: time.Duration(windowBudgetFactor * float64(nominal))}

	var got measured
	var setupSeconds, setupClock []float64
	var tails string
	for nth := 0; nth < cfg.setups; nth++ {
		c, took, stolen, err := setUp(cfg, w, a, nth, warm, warmReqs)
		if err != nil {
			return out, err
		}
		setupSeconds, setupClock = append(setupSeconds, took-stolen), append(setupClock, took)
		if nth == cfg.setups-1 {
			got, err = measureWindow(c, a.http, window, windowReqs, drive)
			tails = c.logTails(15)
		}
		c.stop()
		if err != nil {
			return out, fmt.Errorf("%s window: %w\n%s", w.name, err, tails)
		}
	}

	sum := summarize(got.window, len(w.classes))
	out.attempted, out.failed = sum.attempted, sum.failed
	if share := float64(sum.failed) / float64(sum.attempted); share > maxFailedShare {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d requests failed (%.3f%% > %.1f%%); first: %s\n%s",
			sum.failed, sum.attempted, 100*share, 100*maxFailedShare, sum.firstFailure, tails))
	}
	if sum.count == 0 {
		return out, fmt.Errorf("%s: no request succeeded; first failure: %s\n%s", w.name, sum.firstFailure, tails)
	}
	m := out.metrics
	m["setup_s"] = median(setupSeconds)
	windowMetrics(w, m, sum, got)

	out.notes = append(out.notes,
		fmt.Sprintf("%d set-ups from nothing (%d warm-up requests each) took %v s on the clock, %v s without the time the host had taken the CPUs away; the window ran on the last",
			cfg.setups, len(warm), rounded(setupClock, 3), rounded(setupSeconds, 3)),
		fmt.Sprintf("window %d of %d ops in %.2f s (of which %.2f CPU-seconds stolen by the host) over %d connections (closed loop, loopback HTTP/1.1 keep-alive, not a real link)",
			sum.attempted, n, sum.elapsed.Seconds(), got.stolen, loadConnections),
		fmt.Sprintf("highest percentile with >= 10 samples beyond it: p%g = %.1f us of %d samples", 100*sum.highestSupportedPercentile, sum.highestSupportedPercentileUS, sum.count))
	for i, name := range w.classes {
		out.notes = append(out.notes, fmt.Sprintf("class %s: %.1f%% of ops, p50 %.1f us", name, 100*sum.classShare[i], sum.classP50[i]))
	}

	if w.originIdle {
		// Two independent views of the same thing: the nodes' own count of
		// upstream fetches, and what the origin process wrote.
		if v := m["core.origin_fetches_per_kreq"]; v > w.originPerKreqMax {
			out.problems = append(out.problems, fmt.Sprintf("core.origin_fetches_per_kreq = %g > %g: the %s window must be served from the node's own tiers", v, w.originPerKreqMax, w.name))
		}
		if v, most := m["origin.bytes_per_req"], w.originPerKreqMax/1000*originMaxResponseBytes; v > most {
			out.problems = append(out.problems, fmt.Sprintf("origin.bytes_per_req = %g > %g: the origin must be idle during the %s window", v, most, w.name))
		}
	}
	if cfg.layers {
		for _, s := range perLayer {
			if _, measured := m[s.name]; !measured {
				m[s.name] = 0 // a layer off this workload's path; the passes below overwrite the rest
			}
		}
		notes, err := layerPasses(cfg, w, warm, window, m)
		if err != nil {
			return out, err
		}
		out.notes = append(out.notes, notes...)
	}
	return out, nil
}

// originMaxResponseBytes bounds one origin response on the workloads
// that tolerate a stray upstream fetch (cache_churn: a 10 KiB file plus
// headers).
const originMaxResponseBytes = 12 << 10

// windowMetrics fills in everything the multi-process window itself
// gives: the generator's own samples and /proc deltas (P) and /metrics
// deltas (S).
func windowMetrics(w *workload, m metricSet, sum summary, got measured) {
	classP50 := func(name string) float64 {
		for i, c := range w.classes {
			if c == name {
				return sum.classP50[i]
			}
		}
		return 0
	}
	done := float64(sum.count)
	writes := 0.0
	for i, c := range w.classes {
		if c == "write" {
			writes = sum.classShare[i] * float64(sum.attempted)
		}
	}
	d := got.metrics
	fetchCache := d[`nakika_fetches_total{source="cache"}`]
	fetchPeer := d[`nakika_fetches_total{source="peer"}`]
	fetchOrigin := d[`nakika_fetches_total{source="origin"}`]
	fetchCoalesced := d[`nakika_fetches_total{source="coalesced"}`]
	fetches := fetchCache + fetchPeer + fetchOrigin + fetchCoalesced

	m["node_rss_mb"] = median(got.rssMB)
	m["origin_offload_share"] = 1 - ratio(fetchOrigin, done)

	m["req_per_s"] = sum.reqPerSec
	m["p50_us"] = sum.p50
	m["p90_us"] = sum.p90
	m["ttfb_p50_us"] = sum.ttfbP50
	m["node_cpu_us_per_req"] = cpuMicros(got.nodes.userTicks+got.nodes.sysTicks) / done
	m["node_rss_peak_mb"] = float64(got.nodes.hwmKB) / 1024

	m["client.p99_us"] = sum.p99
	m["client.p999_us"] = sum.p999
	m["client.max_us"] = sum.max
	m["client.samples"] = done
	m["client.read_p50_us"] = classP50("read")
	m["client.write_p50_us"] = classP50("write")
	m["client.html_p50_us"] = classP50("html")
	m["client.media_p50_us"] = classP50("media")
	m["client.gen_cpu_us_per_req"] = cpuMicros(got.self.userTicks+got.self.sysTicks) / done

	m["core.fetch_cache_share"] = ratio(fetchCache, fetches)
	m["core.fetch_peer_share"] = ratio(fetchPeer, fetches)
	m["core.fetch_origin_share"] = ratio(fetchOrigin, fetches)
	m["core.fetch_coalesced_share"] = ratio(fetchCoalesced, fetches)
	m["core.origin_fetches_per_kreq"] = 1000 * ratio(fetchOrigin, done)
	m["core.rejected_share"] = ratio(d["nakika_rejected_total"], d["nakika_requests_total"])
	m["core.errors"] = d["nakika_errors_total"]
	m["core.rep_pushes_per_write"] = ratio(d["nakika_replication_pushes_total"], writes)
	m["core.rep_forwarded_share"] = ratio(d["nakika_replication_forwarded_ops_total"], writes)

	l1 := d[`nakika_cache_hits_total{tier="memory"}`]
	l2 := d[`nakika_cache_hits_total{tier="disk"}`]
	miss := d["nakika_cache_misses_total"]
	m["cache.l1_hit_ratio"] = ratio(l1, l1+l2+miss)
	m["cache.l2_hit_ratio"] = ratio(l2, l1+l2+miss)
	m["cache.miss_ratio"] = ratio(miss, l1+l2+miss)
	m["cache.evictions_per_kreq"] = 1000 * ratio(d[`nakika_cache_evictions_total{tier="memory"}`], done)
	m["cache.disk_evictions_per_kreq"] = 1000 * ratio(d[`nakika_cache_evictions_total{tier="disk"}`], done)

	m["store.appends_per_write"] = ratio(d["nakika_store_wal_appends_total"], writes)
	m["store.fsyncs_per_write"] = ratio(d["nakika_store_fsync_batches_total"], writes)
	m["store.wal_bytes_per_write"] = ratio(d["nakika_store_wal_bytes"], writes)

	m["origin.requests_per_kreq"] = 1000 * float64(got.origin.writeCalls) / done
	m["origin.busy_us_per_req"] = cpuMicros(got.origin.userTicks+got.origin.sysTicks) / done
	m["origin.bytes_per_req"] = float64(got.origin.wchar) / done

	m["node.cpu_user_us_per_req"] = cpuMicros(got.nodes.userTicks) / done
	m["node.cpu_sys_us_per_req"] = cpuMicros(got.nodes.sysTicks) / done
	m["node.ctx_switches_per_req"] = float64(got.nodes.ctxSwitches) / done
	m["node.disk_write_kb_per_req"] = float64(got.nodes.diskWriteBytes) / 1024 / done
	m["node.threads"] = float64(got.nodes.threads)

	m["host.steal_share"] = ratio(got.stolen, 2*sum.elapsed.Seconds())
}

// ratio is num/den, or 0 when there is nothing to divide by (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rounded formats a slice of measurements for a note.
func rounded(v []float64, digits int) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
