package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"nakika"
	"nakika/internal/cache"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/pipeline"
	"nakika/internal/policy"
	"nakika/internal/resource"
	"nakika/internal/script"
	"nakika/internal/store"
	nktrace "nakika/internal/trace"
	"nakika/internal/transport"
	"nakika/internal/vocab"
)

// The isolated layer loops (source L): each replays the workload's own
// generated inputs into one layer's public functions, a fixed number of
// times with the garbage collector held off, and reports the cost per
// operation. They say what a layer costs alone; the window and the traced
// pass say what it costs in place.

// loopPasses is how often each loop is repeated; the cheapest pass is
// reported, which drops passes a neighbour on the shared cores disturbed.
const loopPasses = 3

// loopHeapLimit lets the collector run during a loop only if the loop's
// garbage would otherwise pass this many bytes (the loops over 1 MiB
// bodies get there; the others never do).
const loopHeapLimit = 1 << 30

// measure runs fn(0..n-1) with the collector held off and returns ns and
// allocations per call.
func measure(n int, fn func(i int)) (ns, allocs float64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(loopHeapLimit))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// best repeats a loop and keeps the cheapest pass. setup, when non-nil,
// rebuilds the loop's inputs before every pass, outside the timing.
func best(n int, setup func(), fn func(i int)) (ns, allocs float64) {
	return bestKeep(n, setup, fn, nil)
}

// bestKeep is best with a hook called after each pass that is the
// cheapest so far, so a loop that also sums what its calls reported can
// keep the sums of the pass whose time is reported.
func bestKeep(n int, setup func(), fn func(i int), keep func()) (ns, allocs float64) {
	for pass := 0; pass < loopPasses; pass++ {
		if setup != nil {
			setup()
		}
		pns, pallocs := measure(n, fn)
		if pass == 0 || pns < ns {
			ns = pns
			if keep != nil {
				keep()
			}
		}
		if pass == 0 || pallocs < allocs {
			allocs = pallocs
		}
	}
	return ns, allocs
}

// loopOps is how many of the window's ops the loops replay.
const loopOps = 1000

// request builds the pipeline request a node would stage for o.
func (o op) request(originHost string) *httpmsg.Request {
	req := httpmsg.MustRequest("GET", "http://"+originHost+o.target)
	req.ClientIP = "127.0.0.1"
	if o.rangeTo > 0 {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(o.rangeFrom, 10)+"-"+strconv.FormatInt(o.rangeTo-1, 10))
	}
	return req
}

func requests(ops []op, originHost string) []*httpmsg.Request {
	out := make([]*httpmsg.Request, len(ops))
	for i, o := range ops {
		out[i] = o.request(originHost)
	}
	return out
}

// layerLoops runs every loop that applies to w and fills in the L
// metrics. p is the warmed in-process topology of the traced pass, with
// its recorder off.
func layerLoops(cfg runConfig, w *workload, p *inproc, window []op, m metricSet) error {
	ops := window[:min(len(window), loopOps)]
	host := p.a.origin
	dir := filepath.Join(cfg.workDir, w.name+"-loops")

	if err := handleLoops(w, p, ops, m); err != nil {
		return err
	}
	pairs, err := pipelineLoops(w, p, ops, m)
	if err != nil {
		return err
	}
	messageLoops(ops, host, pairs, m)
	cacheLoops(window, host, m)

	mgr := resource.NewManager(shippedConfig("loop", host).Resources)
	mgr.SetEnabled(true)
	site := ops[0].request(host).SiteKey()
	m["resource.admit_ns_per_req"], _ = best(100000, nil, func(int) { mgr.Admit(site) })

	if w.dataDir && w.app == "specweb" && w.nodes == 1 {
		if err := diskCacheLoops(ops, host, filepath.Join(dir, "disk"), m); err != nil {
			return err
		}
	}
	if w.app == "largefile" {
		if err := largeObjectLoops(w, ops, filepath.Join(dir, "lob"), m); err != nil {
			return err
		}
	}
	if w.nodes > 1 {
		if err := stateLoops(w, p, filepath.Join(dir, "state"), m); err != nil {
			return err
		}
	}
	return nil
}

// handleLoops: Node.Handle on the replayed requests against the warmed
// node, and the same on two fresh single memory-only nodes with the
// observability plane on and off.
func handleLoops(w *workload, p *inproc, ops []op, m metricSet) error {
	host := p.a.origin
	node := p.nodes[0]
	var reqs []*httpmsg.Request
	var fetchNS, segments, resident int64
	var handleErr error
	handle := func(n *nakika.Node) func(int) {
		return func(i int) {
			resp, trace, err := n.Handle(reqs[i])
			if err != nil || resp == nil || resp.Status != 200 {
				handleErr = fmt.Errorf("Node.Handle(%s): status %v, err %v", reqs[i].URL, resp, err)
				return
			}
			if trace == nil {
				return
			}
			for _, s := range trace.Act.Spans[:trace.Act.NSpans] {
				if s.Name == "origin" {
					fetchNS += int64(s.Dur)
				}
			}
			segments += int64(trace.Segments)
			resident += int64(trace.SegmentsResident)
		}
	}
	fresh := func() { reqs, fetchNS, segments, resident = requests(ops, host), 0, 0, 0 }
	n := float64(len(ops))
	m["core.handle_ns_per_req"], m["core.handle_allocs_per_req"] = bestKeep(len(ops), fresh, handle(node), func() {
		m["core.fetch_us_per_req"] = float64(fetchNS) / 1e3 / n
		m["largeobject.segments_per_req"] = float64(segments) / n
		if segments > 0 {
			m["largeobject.resident_ratio"] = float64(resident) / float64(segments)
		}
	})
	if handleErr != nil {
		return handleErr
	}

	// The observability plane's cost: the same replay on two otherwise
	// identical single nodes, passes interleaved so drift hits both alike.
	// Their origin answers from memory: the difference looked for is a few
	// hundred ns, far below the jitter of a loopback round trip.
	var cost [2]float64
	var nodes [2]*nakika.Node
	respond := originResponder(w, p)
	for k, off := range []bool{false, true} {
		c := shippedConfig("observe-"+strconv.FormatBool(off), host)
		c.NoObserve = off
		c.Upstream = core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) { return respond(req), nil })
		n, err := nakika.NewNode(c)
		if err != nil {
			return err
		}
		nodes[k] = n
		fresh()
		for i := range reqs { // warm: script stages, cache, large object
			handle(n)(i)
		}
	}
	if handleErr != nil {
		return handleErr
	}
	for pass := 0; pass < loopPasses; pass++ {
		for k, n := range nodes {
			fresh()
			ns, _ := measure(len(ops), handle(n))
			if pass == 0 || ns < cost[k] {
				cost[k] = ns
			}
		}
	}
	m["observe.handle_delta_ns_per_req"] = cost[0] - cost[1]
	return handleErr
}

// stubHost is the pipeline's host with every operation answered from
// memory at no latency: Fetch from canned origin responses, State from a
// map.
type stubHost struct {
	vocab.NopHost
	origin   func(req *httpmsg.Request) *httpmsg.Response
	noScript bool
	canned   map[string]*httpmsg.Response
	state    map[string]string
}

func (h *stubHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	key := req.URL.String()
	if resp, ok := h.canned[key]; ok {
		return resp, nil
	}
	resp := h.origin(req)
	if h.noScript && req.URL.Path == "/"+pipeline.SiteScriptName {
		resp = httpmsg.NewTextResponse(404, "not found")
	}
	h.canned[key] = resp
	return resp, nil
}

func (h *stubHost) StateGet(_ *nktrace.Act, site, key string) (string, bool) {
	v, ok := h.state[site+"\x00"+key]
	return v, ok
}

func (h *stubHost) StatePut(_ *nktrace.Act, site, key, value string) error {
	h.state[site+"\x00"+key] = value
	return nil
}

// originResponder answers a request as the workload's origin would, in
// memory.
func originResponder(w *workload, p *inproc) func(req *httpmsg.Request) *httpmsg.Response {
	return func(req *httpmsg.Request) *httpmsg.Response {
		switch {
		case req.URL.Path == "/"+pipeline.SiteScriptName:
			resp := httpmsg.NewTextResponse(200, p.app.script)
			resp.SetMaxAge(300)
			return resp
		case p.app.fetcher != nil:
			resp, err := p.app.fetcher.Do(req)
			if err != nil {
				return httpmsg.NewTextResponse(502, err.Error())
			}
			return resp
		case req.URL.Path == "/blob":
			// The pipeline sees the object's headers; its script never
			// reads the body, so a range-sized body stands in for the
			// 64 MiB stream.
			resp := httpmsg.NewResponse(200)
			resp.Header.Set("Content-Type", "application/octet-stream")
			resp.Header.Set("Accept-Ranges", "bytes")
			resp.SetBody(largeObjectBytes(w.objectBytes))
			resp.SetMaxAge(600)
			return resp
		}
		return httpmsg.NewTextResponse(404, "not found")
	}
}

// executor builds a pipeline executor over a stub host, wired as
// core.NewNode wires the real one.
func executor(w *workload, p *inproc, noScript bool) *pipeline.Executor {
	host := &stubHost{origin: originResponder(w, p), noScript: noScript, canned: make(map[string]*httpmsg.Response), state: make(map[string]string)}
	cfg := shippedConfig("loop", p.a.origin)
	res := resource.NewManager(cfg.Resources)
	res.SetEnabled(true)
	return &pipeline.Executor{
		Loader:        pipeline.NewLoader(host, script.Limits{MaxSteps: 50_000_000, MaxHeapBytes: 64 << 20}),
		Host:          host,
		FetchOrigin:   host.Fetch,
		Resources:     res,
		ClientWallURL: cfg.ClientWallURL,
		ServerWallURL: cfg.ServerWallURL,
	}
}

// exchange is a request with the response the pipeline produced for it.
type exchange struct {
	req  *httpmsg.Request
	resp *httpmsg.Response
}

// pipelineLoops: Executor.Execute over a zero-latency stub, with and
// without the site script; policy matching; script compilation.
func pipelineLoops(w *workload, p *inproc, ops []op, m metricSet) ([]exchange, error) {
	host := p.a.origin
	var reqs []*httpmsg.Request
	fresh := func() { reqs = requests(ops, host) }
	pairs := make([]exchange, len(ops))
	var elapsed, spanned, handlerNS time.Duration
	var stages, handlers int
	var execErr error
	run := func(ex *pipeline.Executor, keep bool) func(int) {
		return func(i int) {
			resp, trace, err := ex.Execute(reqs[i])
			if err != nil || resp == nil || resp.Status != 200 {
				execErr = fmt.Errorf("Executor.Execute(%s): %v, err %v", reqs[i].URL, resp, err)
				return
			}
			if !keep {
				return
			}
			pairs[i] = exchange{reqs[i], resp}
			elapsed += trace.Elapsed
			for _, s := range trace.Act.Spans[:trace.Act.NSpans] {
				spanned += s.Dur
				if s.Name != "origin" {
					handlerNS += s.Dur
				}
			}
			stages += len(trace.Stages)
			for _, st := range trace.Stages {
				if st.RanRequest {
					handlers++
				}
				if st.RanResponse {
					handlers++
				}
			}
		}
	}
	with, without := executor(w, p, false), executor(w, p, true)
	for _, ex := range []*pipeline.Executor{with, without} {
		fresh()
		for i := range reqs { // load stages and fill the stub's canned responses
			run(ex, false)(i)
		}
	}
	if execErr != nil {
		return nil, execErr
	}
	reset := func() { fresh(); elapsed, spanned, handlerNS, stages, handlers = 0, 0, 0, 0, 0 }
	n := float64(len(ops))
	ns, allocs := bestKeep(len(ops), reset, run(with, true), func() {
		m["pipeline.self_us_per_req"] = float64(elapsed-spanned) / 1e3 / n
		m["pipeline.stages_per_req"] = float64(stages) / n
		m["pipeline.handlers_per_req"] = float64(handlers) / n
		m["script.handler_us_per_req"] = float64(handlerNS) / 1e3 / n
	})
	_, allocsBare := best(len(ops), fresh, run(without, false))
	if execErr != nil {
		return nil, execErr
	}
	m["pipeline.execute_ns_per_req"], m["pipeline.execute_allocs_per_req"] = ns, allocs

	// The site's policies, matched over the workload's URLs.
	siteURL := "http://" + host + "/" + pipeline.SiteScriptName
	site := reqs[0].SiteKey()
	stage, err := with.Loader.Load(siteURL, site)
	if err != nil {
		return nil, err
	}
	tree := policy.NewTree(stage.Policies())
	inputs := make([]policy.Input, len(reqs))
	for i, r := range reqs {
		inputs[i] = policy.Input{Host: r.Host(), Port: r.URL.Port(), Path: r.Path(), ClientIP: r.ClientIP, Method: r.Method, Header: r.Header}
	}
	const matchRounds = 25
	var matchAllocs float64
	m["policy.match_ns_per_req"], matchAllocs = best(matchRounds*len(inputs), nil, func(i int) { tree.Match(inputs[i%len(inputs)]) })
	// Without its script a site has no policies to match, so the match's
	// own allocations are in the difference too; take them out.
	m["script.handler_allocs_per_req"] = allocs - allocsBare - matchAllocs

	var compileErr error
	const compiles = 20
	compileNS, _ := best(compiles, nil, func(int) {
		if _, err := with.Loader.Compile(siteURL, site, p.app.script); err != nil {
			compileErr = err
		}
	})
	m["script.compile_us"] = compileNS / 1e3
	return pairs, compileErr
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// messageLoops: the httpmsg functions on the request path, over the
// workload's requests and the responses the pipeline produced for them.
func messageLoops(ops []op, host string, pairs []exchange, m metricSet) {
	inbound := make([]*http.Request, len(ops))
	for i, o := range ops {
		hr, err := http.NewRequest("GET", "http://127.0.0.1:8080"+o.target, http.NoBody)
		if err != nil {
			panic(err) // generated targets always parse
		}
		hr.Host, hr.RemoteAddr = host, "127.0.0.1:40000"
		hr.URL.Scheme, hr.URL.Host = "", "" // a server sees an origin-form target
		if o.rangeTo > 0 {
			hr.Header.Set("Range", "bytes="+strconv.FormatInt(o.rangeFrom, 10)+"-"+strconv.FormatInt(o.rangeTo-1, 10))
		}
		inbound[i] = hr
	}
	// Few rounds: staging a request allocates 36 KiB of read buffers even
	// for a bodyless GET, and the collector is held off.
	const rounds = 3
	n := rounds * len(ops)
	m["httpmsg.parse_ns_per_req"], m["httpmsg.parse_allocs_per_req"] = best(n, nil, func(i int) {
		req, err := httpmsg.AcquireFromHTTPRequest(inbound[i%len(inbound)], 8<<20)
		if err != nil {
			panic(err) // bodyless GETs cannot exceed the body limit
		}
		req.Release()
	})

	ranged := make([]*httpmsg.Response, len(pairs))
	m["httpmsg.range_ns_per_req"], _ = best(n, nil, func(i int) {
		k := i % len(pairs)
		ranged[k] = httpmsg.ApplyRange(pairs[k].req, pairs[k].resp)
	})
	dw := &discardWriter{h: make(http.Header)}
	m["httpmsg.write_ns_per_resp"], m["httpmsg.write_allocs_per_resp"] = best(n, nil, func(i int) {
		clear(dw.h)
		_ = ranged[i%len(ranged)].WriteToMethod(dw, "GET") // the discarding writer cannot fail
	})
	// Encoding copies the body, so the loop is capped by bytes as well as
	// by count: 1 MiB bodies would otherwise run for seconds.
	bodyBytes := 0
	for _, r := range ranged {
		bodyBytes += len(r.Body)
	}
	codecOps := max(50, min(len(ranged), len(ranged)*(128<<20)/max(bodyBytes, 1)))
	m["httpmsg.codec_ns_per_resp"], _ = best(min(codecOps, len(ranged)), nil, func(i int) {
		if _, err := httpmsg.DecodeResponse(httpmsg.EncodeResponse(ranged[i])); err != nil {
			panic(err) // a response this process just encoded
		}
	})
}

// cannedResponse is a cacheable 200 of the op's size.
func cannedResponse(o op) *httpmsg.Response {
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.SetBody(make([]byte, min(o.wantLen, 64<<10)))
	resp.SetMaxAge(3600)
	return resp
}

func cacheKey(o op, host string) string { return "GET http://" + host + o.target }

// cacheLoops: the memory cache at default capacity, replaying the
// window's key sequence: Get, and Put on a miss.
func cacheLoops(window []op, host string, m metricSet) {
	ops := window[:min(len(window), 20000)]
	keys := make([]string, len(ops))
	resps := make([]*httpmsg.Response, len(ops))
	byKey := make(map[string]*httpmsg.Response)
	for i, o := range ops {
		keys[i] = cacheKey(o, host)
		if byKey[keys[i]] == nil {
			byKey[keys[i]] = cannedResponse(o)
		}
		resps[i] = byKey[keys[i]]
	}
	var c *cache.Cache
	var putNS time.Duration
	var puts int
	fresh := func() { c, putNS, puts = cache.New(cache.Config{}), 0, 0 }
	var bestGet, bestPut float64
	for pass := 0; pass < loopPasses; pass++ {
		fresh()
		total, _ := measure(len(keys), func(i int) {
			if c.Get(keys[i]) == nil {
				start := time.Now()
				c.Put(keys[i], resps[i])
				putNS += time.Since(start)
				puts++
			}
		})
		get := (total*float64(len(keys)) - float64(putNS)) / float64(len(keys))
		put := float64(putNS) / float64(max(puts, 1))
		if pass == 0 || get < bestGet {
			bestGet = get
		}
		if pass == 0 || put < bestPut {
			bestPut = put
		}
	}
	m["cache.get_ns_per_op"], m["cache.put_ns_per_op"] = bestGet, bestPut
	// Allocations of Get alone, on the cache the last replay left.
	_, m["cache.get_allocs_per_op"] = best(len(keys), nil, func(i int) { c.Get(keys[i]) })
}

// diskCacheLoops: cache.Disk on a temporary directory.
func diskCacheLoops(ops []op, host, dir string, m metricSet) error {
	fs, err := store.NewDirFS(dir)
	if err != nil {
		return err
	}
	d, err := cache.OpenDisk(fs, 1<<30, nil)
	if err != nil {
		return err
	}
	expires := time.Now().Add(time.Hour)
	putNS, _ := measure(len(ops), func(i int) { d.Put(cacheKey(ops[i], host)+"#"+strconv.Itoa(i), cannedResponse(ops[i]), expires) })
	misses := 0
	getNS, _ := best(len(ops), nil, func(i int) {
		if _, _, ok := d.Get(cacheKey(ops[i], host) + "#" + strconv.Itoa(i)); !ok {
			misses++
		}
	})
	if misses > 0 {
		return fmt.Errorf("cache.Disk lost %d of %d entries it had just stored", misses/loopPasses, len(ops))
	}
	m["cache.disk_put_us_per_op"], m["cache.disk_get_us_per_op"] = putNS/1e3, getNS/1e3
	return nil
}

// largeObjectLoops: the slab and the tier on a temporary directory, fed
// from the object itself and read at the workload's ranges.
func largeObjectLoops(w *workload, ops []op, dir string, m metricSet) error {
	const segSize = 256 << 10
	obj := largeObjectBytes(w.objectBytes)
	slabFS, err := store.NewDirFS(filepath.Join(dir, "slab"))
	if err != nil {
		return err
	}
	slab, err := largeobject.NewSlab(slabFS, segSize, 64<<20)
	if err != nil {
		return err
	}
	segs := min(64, len(obj)/segSize)
	ids := make([]largeobject.SegID, segs)
	for i := range ids {
		ids[i] = largeobject.HashSegment(obj[i*segSize : (i+1)*segSize])
	}
	var loopErr error
	putNS, _ := measure(segs, func(i int) {
		if err := slab.Put(ids[i], obj[i*segSize:(i+1)*segSize]); err != nil {
			loopErr = err
		}
	})
	getNS, _ := best(segs, nil, func(i int) {
		if _, ok := slab.Get(ids[i]); !ok {
			loopErr = fmt.Errorf("slab lost segment %d", i)
		}
	})
	if loopErr != nil {
		return loopErr
	}
	m["largeobject.slab_put_us_per_seg"], m["largeobject.slab_get_us_per_seg"] = putNS/1e3, getNS/1e3

	tierFS, err := store.NewDirFS(filepath.Join(dir, "tier"))
	if err != nil {
		return err
	}
	tier, err := largeobject.OpenTier(tierFS, segSize, 512<<20)
	if err != nil {
		return err
	}
	ingest := min(32<<20, len(obj))
	start := time.Now()
	manifest, err := tier.IngestBody("GET http://loop/blob", 200, http.Header{}, time.Now(), obj[:ingest])
	if err != nil {
		return err
	}
	m["largeobject.ingest_mb_per_s"] = float64(ingest) / (1 << 20) / time.Since(start).Seconds()

	stream := tier.NewStream(manifest, nil)
	ranges := ops[:min(len(ops), 64)]
	var read int64
	readNS, _ := best(len(ranges), func() { read = 0 }, func(i int) {
		from := ranges[i].rangeFrom % int64(ingest-largeRangeLen)
		rc, err := stream.Range(from, from+largeRangeLen)
		if err != nil {
			loopErr = err
			return
		}
		n, err := io.Copy(io.Discard, rc)
		rc.Close()
		read += n
		if err != nil {
			loopErr = err
		}
	})
	if loopErr != nil {
		return loopErr
	}
	m["largeobject.range_read_mb_per_s"] = float64(read) / (1 << 20) / (readNS * float64(len(ranges)) / 1e9)
	return nil
}

// stateLoops: the layers under replicated hard state, each alone: the
// WAL, a single node's State calls, one RPC round trip, overlay lookups
// on the warmed 3-node ring.
func stateLoops(w *workload, p *inproc, dir string, m metricSet) error {
	const writes = 300
	logFS, err := store.NewDirFS(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	log, err := store.OpenLog(logFS, store.LogConfig{})
	if err != nil {
		return err
	}
	var loopErr error
	value := `{"name":"user-0","ads":6}`
	ns, _ := measure(writes, func(i int) {
		if err := log.Put("loop", "user:user-"+strconv.Itoa(i), value); err != nil {
			loopErr = err
		}
	})
	if err := log.Close(); err != nil {
		return err
	}
	m["store.append_sync_us_per_op"] = ns / 1e3

	nodeFS, err := store.NewDirFS(filepath.Join(dir, "node"))
	if err != nil {
		return err
	}
	cfg := shippedConfig("state-loop", p.a.origin)
	cfg.DataFS = nodeFS
	node, err := nakika.NewNode(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = node.Shutdown() }() // scratch data, deleted with the run
	ns, _ = measure(writes, func(i int) {
		if err := node.StatePut("loop", "user:user-"+strconv.Itoa(i), value); err != nil {
			loopErr = err
		}
	})
	m["state.put_us_per_op"] = ns / 1e3
	m["state.get_ns_per_op"], _ = best(50000, nil, func(i int) {
		if _, ok := node.StateGet("loop", "user:user-"+strconv.Itoa(i%writes)); !ok {
			loopErr = fmt.Errorf("StateGet lost a key StatePut had stored")
		}
	})

	// One caller, one echoing peer, the multiplexed TCP transport.
	server, client := transport.NewTCP(), transport.NewTCP()
	defer server.Close()
	defer client.Close()
	server.Register("echo", func(_ string, msg transport.Message) (transport.Message, error) { return msg, nil })
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	client.AddPeer("echo", addr.String())
	msg := transport.Message{Type: "rep.store", Key: "user:user-0", Body: []byte(value)}
	ns, _ = best(3000, nil, func(int) {
		if _, err := client.Call("loop", "echo", msg); err != nil {
			loopErr = err
		}
	})
	m["transport.rpc_rtt_us"] = ns / 1e3

	ov := p.nodes[0].Overlay()
	const keys = 100
	for k := 0; k < keys; k++ {
		if _, err := ov.Publish("loop-key-" + strconv.Itoa(k)); err != nil {
			return err
		}
	}
	hops := 0
	const locates = 2000
	ns, _ = best(locates, func() { hops = 0 }, func(i int) {
		_, h, err := ov.LocateErr("loop-key-" + strconv.Itoa(i%keys))
		if err != nil {
			loopErr = err
		}
		hops += h
	})
	m["overlay.locate_us_per_op"] = ns / 1e3
	m["overlay.rpcs_per_locate"] = float64(hops) / locates
	return loopErr
}
