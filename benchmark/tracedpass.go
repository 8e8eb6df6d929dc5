package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracedShare: one op in tracedShare of the window is replayed traced,
// and as many untraced beside them.
const tracedShare = 10

// layerPasses builds and warms the workload's topology inside this
// process and runs the two per-layer passes against it: the traced pass
// and the isolated layer loops.
func layerPasses(cfg runConfig, w *workload, warm, window []op, m metricSet) ([]string, error) {
	rec := newRecorder()
	a, err := reserveAddrs(w.nodes)
	if err != nil {
		return nil, err
	}
	p, err := startInproc(w, a, filepath.Join(cfg.workDir, w.name+"-inproc"), rec)
	if err != nil {
		return nil, fmt.Errorf("%s in-process topology: %w", w.name, err)
	}
	defer p.stop()
	if err := warmUp(w, p.a, warm, renderAll(warm, p.a.origin)); err != nil {
		return nil, fmt.Errorf("%s in-process warm-up: %w", w.name, err)
	}
	notes, err := tracedPass(cfg, w, p, rec, window, m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := layerLoops(cfg, w, p, window, m); err != nil {
		return nil, fmt.Errorf("%s layer loops: %w", w.name, err)
	}
	return append(notes, fmt.Sprintf("layer loops: %.2f s", time.Since(start).Seconds())), nil
}

// tracedPass runs the first fifth of the window against the in-process
// topology on one connection, switching the recorder on for every other
// request: a tenth of the window traced, a tenth not, both sides seeing
// the same cache contents, log length and scheduler. (Replaying the same
// ops twice would not do: the second replay finds what the first one
// left in the cache.) It fills in the T metrics; the spans go to
// trace-<workload>.json under cfg.outDir.
func tracedPass(cfg runConfig, w *workload, p *inproc, rec *recorder, window []op, m metricSet) ([]string, error) {
	ops := window[:max(2, 2*len(window)/tracedShare)]
	reqs := renderAll(ops, p.a.origin)
	isTraced := func(i int) bool { return i%2 == 0 }
	res, err := runOps(p.a.http, ops, reqs, load{
		conns:     1,
		failAfter: time.Duration(windowFailFactor*cfg.seconds) * time.Second,
		before:    func(i int) { rec.enabled.Store(isTraced(i)) },
	})
	rec.enabled.Store(false)
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%d of %d requests failed; first: %s", res.failed, res.attempts, res.firstFailure)
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	var tracedOps []op
	var tracedUS, plainUS []float64
	for i, s := range res.samples {
		if !isTraced(i) {
			plainUS = append(plainUS, s.totalMicros)
			continue
		}
		tracedOps = append(tracedOps, ops[i])
		tracedUS = append(tracedUS, s.totalMicros)
		end := res.start.Add(time.Duration(s.doneAt * float64(time.Second)))
		rec.add("client.request", levelClient, end.Add(-time.Duration(s.totalMicros*float64(time.Microsecond))), end)
	}
	spans, counts := rec.take()
	tracedMetrics(w, tracedOps, spans, counts, m)
	tracedP50, plainP50 := median(tracedUS), median(plainUS)
	m["trace.overhead_pct"] = 100 * (tracedP50/plainP50 - 1)

	path, err := writeTrace(cfg.outDir, w.name, spans, counts)
	if err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("traced pass: %d ops on 1 connection in-process, every other one traced: p50 %.1f us traced vs %.1f us untraced, %d spans in %s",
			len(ops), tracedP50, plainP50, len(spans), path),
	}, nil
}

// tracedMetrics reduces a resolved span forest to the T metrics. ops are
// the requests in the order the roots were issued.
func tracedMetrics(w *workload, ops []op, spans []span, counts map[string]int64, m metricSet) {
	children := make([][]int, len(spans))
	var roots []int
	for i, s := range spans {
		switch {
		case s.Level == levelClient:
			roots = append(roots, i)
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// descendants of a root, in start order.
	var walk func(i int, out *[]int)
	walk = func(i int, out *[]int) {
		for _, c := range children[i] {
			*out = append(*out, c)
			walk(c, out)
		}
	}
	micros := func(ns int64) float64 { return float64(ns) / 1e3 }

	var handlerDur, handlerSelf, netOver, fsyncDur []float64
	var rootTotal, handlerSelfTotal, rpcWait, writeTotal, writeSync int64
	var rpcs int
	for k, r := range roots {
		var desc []int
		walk(r, &desc)
		sort.Ints(desc)
		var rpcIdx, syncIdx []int
		for _, d := range desc {
			switch s := spans[d]; {
			case s.Name == "core.serve_http" && s.Parent == r:
				handlerDur = append(handlerDur, micros(s.dur()))
				handlerSelf = append(handlerSelf, micros(s.Self))
				handlerSelfTotal += s.Self
				netOver = append(netOver, micros(spans[r].dur()-s.dur()))
			case strings.HasPrefix(s.Name, "rpc:"):
				rpcIdx = append(rpcIdx, d)
			case strings.HasPrefix(s.Name, "fs.sync:"):
				syncIdx = append(syncIdx, d)
			}
		}
		rootTotal += spans[r].dur()
		rpcs += len(rpcIdx)
		rpcWait += covered(spans, spans[r], rpcIdx)
		if k < len(ops) && int(ops[k].class) < len(w.classes) && w.classes[ops[k].class] == "write" {
			writeTotal += spans[r].dur()
			writeSync += covered(spans, spans[r], syncIdx)
		}
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "fs.sync:") {
			fsyncDur = append(fsyncDur, micros(s.dur()))
		}
	}
	n := float64(len(roots))
	m["core.serve_http_us"] = median(handlerDur)
	m["core.serve_http_self_us"] = median(handlerSelf)
	m["net.overhead_us"] = median(netOver)
	m["trace.unattributed_share"] = ratio(float64(handlerSelfTotal), float64(rootTotal))
	m["transport.rpcs_per_req"] = ratio(float64(rpcs), n)
	m["transport.rpc_wait_us_per_req"] = ratio(micros(rpcWait), n)
	m["transport.bytes_per_rpc"] = ratio(float64(counts["rpc.bytes"]), float64(counts["rpc.calls"]))
	m["store.fsync_us_p50"] = median(fsyncDur)
	m["store.fsync_share_of_write"] = ratio(float64(writeSync), float64(writeTotal))
	m["cache.disk_write_kb_per_req"] = ratio(float64(counts["fs.write_bytes:cache"])/1024, n)
}
