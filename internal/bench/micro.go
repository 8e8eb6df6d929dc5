// Package bench has two jobs, and cmd/nakika-bench is its front end for
// both.
//
// It reproduces the figures of the paper's Section 5 that no benchmark/
// workload can show: Table 2 (RunTable2), the Section 5.1 cost breakdown
// (RunBreakdown) and resource controls (RunResourceControls), Figure 7's
// wide-area SIMM model on the simnet simulator (RunFigure7), and the
// Section 5.4 extension sizes (Extensions).
//
// And it produces deterministic counts, gated exactly in tier-1. Message
// counts and virtual time for replication, offload and leases, origin fetch
// counts for the large-object tier and Figure 7's curves are byte-exact
// goldens (bench/baseline/BENCH_*.json, compared by cmd/nakika-bench's
// TestGoldens). Allocations per warm request, for the data plane and the
// observability plane, are ceilings (TestWarmProxyHitAllocBudget).
//
// Timing, throughput and per-layer cost are benchmark/'s job, not this
// package's: nothing here that is gated reads the wall clock.
package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
	"nakika/internal/policy"
	"nakika/internal/resource"
	"nakika/internal/script"
)

// googlePageBytes is the size of the static document used by the paper's
// micro-benchmarks: Google's home page without inline images, 2,096 bytes.
const googlePageBytes = 2096

// staticPage is the 2,096-byte test document.
var staticPage = buildStaticPage()

func buildStaticPage() string {
	var sb strings.Builder
	sb.WriteString("<html><head><title>Google</title></head><body>")
	for sb.Len() < googlePageBytes-14 {
		sb.WriteString("<p>search</p>\n")
	}
	s := sb.String()
	for len(s) < googlePageBytes {
		s += "."
	}
	return s[:googlePageBytes]
}

// MicroConfig names one of the Table 1 configurations.
type MicroConfig string

// The nine configurations of Table 1.
const (
	ConfigProxy   MicroConfig = "Proxy"
	ConfigDHT     MicroConfig = "DHT"
	ConfigAdmin   MicroConfig = "Admin"
	ConfigPred0   MicroConfig = "Pred-0"
	ConfigPred1   MicroConfig = "Pred-1"
	ConfigMatch1  MicroConfig = "Match-1"
	ConfigPred10  MicroConfig = "Pred-10"
	ConfigPred50  MicroConfig = "Pred-50"
	ConfigPred100 MicroConfig = "Pred-100"
)

// MicroConfigs lists the Table 2 rows in the paper's order.
var MicroConfigs = []MicroConfig{
	ConfigProxy, ConfigDHT, ConfigAdmin, ConfigPred0, ConfigPred1,
	ConfigMatch1, ConfigPred10, ConfigPred50, ConfigPred100,
}

// staticHost is the origin host used by the micro-benchmarks.
const staticHost = "static.example.org"

// microOrigin serves the static page, the administrative control scripts,
// and the site script appropriate for a configuration.
func microOrigin(cfg MicroConfig) core.Fetcher {
	siteScript := microSiteScript(cfg)
	adminScript := `
		var p = new Policy();
		p.url = [ "` + staticHost + `" ];
		p.onRequest = function() { };
		p.onResponse = function() { };
		p.register();
	`
	return core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case req.Host() == staticHost && req.Path() == "/index.html":
			resp := httpmsg.NewHTMLResponse(200, staticPage)
			resp.SetMaxAge(600)
			return resp, nil
		case req.Path() == "/clientwall.js" || req.Path() == "/serverwall.js":
			if cfg == ConfigProxy || cfg == ConfigDHT {
				return httpmsg.NewTextResponse(404, "none"), nil
			}
			r := httpmsg.NewTextResponse(200, adminScript)
			r.SetMaxAge(600)
			return r, nil
		case req.Host() == staticHost && req.Path() == "/nakika.js":
			if siteScript == "" {
				return httpmsg.NewTextResponse(404, "none"), nil
			}
			r := httpmsg.NewTextResponse(200, siteScript)
			r.SetMaxAge(600)
			return r, nil
		default:
			return httpmsg.NewTextResponse(404, "not found"), nil
		}
	})
}

// microSiteScript builds the site-specific stage for a configuration:
// Pred-n registers n policy objects whose predicates never match, Match-1
// registers one matching pair of empty handlers.
func microSiteScript(cfg MicroConfig) string {
	var n int
	switch cfg {
	case ConfigProxy, ConfigDHT, ConfigAdmin:
		return ""
	case ConfigPred0:
		n = 0
	case ConfigPred1:
		n = 1
	case ConfigPred10:
		n = 10
	case ConfigPred50:
		n = 50
	case ConfigPred100:
		n = 100
	case ConfigMatch1:
		return `
			var p = new Policy();
			p.url = [ "` + staticHost + `" ];
			p.onRequest = function() { };
			p.onResponse = function() { };
			p.register();
		`
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
			var p%d = new Policy();
			p%d.url = [ "no-match-%d.example.net/some/long/path" ];
			p%d.client = [ "198.51.%d.0/24" ];
			p%d.onRequest = function() { };
			p%d.onResponse = function() { };
			p%d.register();
		`, i, i, i, i, i%250, i, i, i)
	}
	if n == 0 {
		sb.WriteString("// Pred-0: a site script that registers no policies\n")
	}
	return sb.String()
}

// microNode builds a node for a configuration. The Proxy configuration
// bypasses the pipeline entirely (the plain-Apache-proxy baseline); DHT adds
// the overlay; the remaining configurations run the full pipeline.
func microNode(cfg MicroConfig) (*core.Node, error) {
	nodeCfg := core.Config{
		Name:          "micro-" + string(cfg),
		Region:        "local",
		Upstream:      microOrigin(cfg),
		ClientWallURL: "http://nakika.net/clientwall.js",
		ServerWallURL: "http://nakika.net/serverwall.js",
	}
	if cfg == ConfigDHT {
		// A ring of two, so a cold access asks the overlay who holds a copy
		// (nobody does) before it goes to the origin.
		nodeCfg.Ring = overlay.NewRing()
		peerCfg := nodeCfg
		peerCfg.Name += "-peer"
		if _, err := core.NewNode(peerCfg); err != nil {
			return nil, err
		}
	}
	return core.NewNode(nodeCfg)
}

// pageRequest builds the micro-benchmark request.
func pageRequest() *httpmsg.Request {
	req := httpmsg.MustRequest("GET", "http://"+staticHost+"/index.html")
	req.ClientIP = "10.0.0.1"
	return req
}

// fetchStatic performs one access in the Proxy/DHT configurations (no
// pipeline, just cache + upstream), mirroring a plain proxy cache.
func fetchStatic(node *core.Node) error {
	resp, err := node.Fetch(pageRequest())
	if err != nil {
		return err
	}
	if resp.Status != 200 || len(resp.Body) != googlePageBytes {
		return fmt.Errorf("bench: unexpected response %d (%d bytes)", resp.Status, len(resp.Body))
	}
	return nil
}

// MicroResult is one Table 2 row.
type MicroResult struct {
	Config MicroConfig
	Cold   time.Duration
	Warm   time.Duration
}

// RunMicro measures cold- and warm-cache access latency for one
// configuration, averaged over iterations (the paper uses 10).
func RunMicro(cfg MicroConfig, iterations int) (MicroResult, error) {
	if iterations <= 0 {
		iterations = 10
	}
	res := MicroResult{Config: cfg}

	// Cold cache: rebuild the node (clearing the response cache, the stage
	// cache, and the scripting contexts) before every access.
	var coldTotal time.Duration
	for i := 0; i < iterations; i++ {
		node, err := microNode(cfg)
		if err != nil {
			return res, err
		}
		start := time.Now()
		if err := runMicroAccess(node, cfg); err != nil {
			return res, err
		}
		coldTotal += time.Since(start)
	}
	res.Cold = coldTotal / time.Duration(iterations)

	// Warm cache: one node, one warm-up access, then measure repeats.
	node, err := microNode(cfg)
	if err != nil {
		return res, err
	}
	if err := runMicroAccess(node, cfg); err != nil {
		return res, err
	}
	var warmTotal time.Duration
	for i := 0; i < iterations; i++ {
		start := time.Now()
		if err := runMicroAccess(node, cfg); err != nil {
			return res, err
		}
		warmTotal += time.Since(start)
	}
	res.Warm = warmTotal / time.Duration(iterations)
	return res, nil
}

func runMicroAccess(node *core.Node, cfg MicroConfig) error {
	switch cfg {
	case ConfigProxy, ConfigDHT:
		return fetchStatic(node)
	default:
		resp, _, err := node.Handle(pageRequest())
		if err != nil {
			return err
		}
		if resp.Status != 200 || len(resp.Body) != googlePageBytes {
			return fmt.Errorf("bench: unexpected response %d (%d bytes)", resp.Status, len(resp.Body))
		}
		return nil
	}
}

// RunTable2 produces every Table 2 row.
func RunTable2(iterations int) ([]MicroResult, error) {
	out := make([]MicroResult, 0, len(MicroConfigs))
	for _, cfg := range MicroConfigs {
		r, err := RunMicro(cfg, iterations)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E2: cost breakdown (Section 5.1 prose)
// ---------------------------------------------------------------------------

// BreakdownResult reports the individual micro costs Section 5.1 quotes.
type BreakdownResult struct {
	PageLoad        time.Duration // fetching the static page from the origin
	ScriptLoad      time.Duration // fetching a script resource
	ContextCreation time.Duration // creating a fresh scripting context
	ContextReuse    time.Duration // reusing a cached context
	ParseAndRun     time.Duration // parsing + evaluating the Match-1 script
	CacheHit        time.Duration // retrieving the page from the local cache
	TreeCacheHit    time.Duration // retrieving a cached decision tree (stage)
	PredicateEval   time.Duration // one predicate evaluation over 100 policies
}

// policyInputForBench converts a request into the predicate-evaluation input
// (used when benchmarking the matcher in isolation).
func policyInputForBench(req *httpmsg.Request) policy.Input {
	return policy.Input{
		Host:     req.Host(),
		Path:     req.Path(),
		ClientIP: req.ClientIP,
		Method:   req.Method,
		Header:   req.Header,
	}
}

// RunBreakdown measures the instrumented cost breakdown.
func RunBreakdown(iterations int) (BreakdownResult, error) {
	if iterations <= 0 {
		iterations = 100
	}
	var out BreakdownResult

	// Page and script loads through a fresh node each time (origin access).
	node, err := microNode(ConfigMatch1)
	if err != nil {
		return out, err
	}
	start := time.Now()
	for i := 0; i < iterations; i++ {
		n2, err := microNode(ConfigMatch1)
		if err != nil {
			return out, err
		}
		if err := fetchStatic(n2); err != nil {
			return out, err
		}
	}
	out.PageLoad = time.Since(start) / time.Duration(iterations)

	scriptReq := httpmsg.MustRequest("GET", "http://"+staticHost+"/nakika.js")
	start = time.Now()
	for i := 0; i < iterations; i++ {
		n2, err := microNode(ConfigMatch1)
		if err != nil {
			return out, err
		}
		if _, err := n2.Fetch(scriptReq.Clone()); err != nil {
			return out, err
		}
	}
	out.ScriptLoad = time.Since(start) / time.Duration(iterations)

	// Context creation vs reuse.
	start = time.Now()
	for i := 0; i < iterations; i++ {
		script.NewContext(script.Limits{})
	}
	out.ContextCreation = time.Since(start) / time.Duration(iterations)

	ctx := script.NewContext(script.Limits{})
	start = time.Now()
	for i := 0; i < iterations; i++ {
		ctx.Reset()
	}
	out.ContextReuse = time.Since(start) / time.Duration(iterations)

	// Parse + run the Match-1 site script.
	src := microSiteScript(ConfigMatch1)
	start = time.Now()
	for i := 0; i < iterations; i++ {
		c := script.NewContext(script.Limits{})
		c.DefineGlobal("Policy", &script.Native{
			Name: "Policy",
			Construct: func(cc *script.Context, this script.Value, args []script.Value) (script.Value, error) {
				return script.NewObject(), nil
			},
			Fn: func(cc *script.Context, this script.Value, args []script.Value) (script.Value, error) {
				return script.NewObject(), nil
			},
		})
		// register() on a bare object is undefined; wrap to ignore errors by
		// appending a register method through a prelude.
		if _, err := c.RunSource("function __reg(o){}\n"+strings.ReplaceAll(src, ".register()", ".url && __reg(p)"), "match1.js"); err != nil {
			return out, err
		}
	}
	out.ParseAndRun = time.Since(start) / time.Duration(iterations)

	// Cache hit for the page.
	if err := fetchStatic(node); err != nil {
		return out, err
	}
	start = time.Now()
	for i := 0; i < iterations; i++ {
		if err := fetchStatic(node); err != nil {
			return out, err
		}
	}
	out.CacheHit = time.Since(start) / time.Duration(iterations)

	// Decision tree (stage) cache hit.
	if _, err := node.Loader().Load("http://"+staticHost+"/nakika.js", staticHost); err != nil {
		return out, err
	}
	start = time.Now()
	for i := 0; i < iterations; i++ {
		if _, err := node.Loader().Load("http://"+staticHost+"/nakika.js", staticHost); err != nil {
			return out, err
		}
	}
	out.TreeCacheHit = time.Since(start) / time.Duration(iterations)

	// Predicate evaluation over a 100-policy stage.
	predNode, err := microNode(ConfigPred100)
	if err != nil {
		return out, err
	}
	stage, err := predNode.Loader().Load("http://"+staticHost+"/nakika.js", staticHost)
	if err != nil {
		return out, err
	}
	in := pageRequest()
	start = time.Now()
	for i := 0; i < iterations; i++ {
		stage.Match(policyInputForBench(in))
	}
	out.PredicateEval = time.Since(start) / time.Duration(iterations)
	return out, nil
}

// ---------------------------------------------------------------------------
// E4: resource controls (Section 5.1)
// ---------------------------------------------------------------------------

// LoadResult reports a closed-loop load test.
type LoadResult struct {
	Clients      int
	Duration     time.Duration
	Completed    int64
	Rejected     int64
	Terminated   int64
	Throughput   float64 // successful requests per second
	RejectedPct  float64
	TerminatePct float64
}

// RunResourceControls reproduces the Section 5.1 resource-control
// experiment: clients load-generating against Match-1, optionally with an
// additional misbehaving (memory hog) site, with congestion-based resource
// controls on or off.
func RunResourceControls(clients int, withControls, withHog bool, duration time.Duration) (LoadResult, error) {
	node, err := microResourceNode(withControls)
	if err != nil {
		return LoadResult{}, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if withControls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(20 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					node.Resources().ControlOnce()
				}
			}
		}()
	}
	if withHog {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httpmsg.MustRequest("GET", "http://hog.example.net/index.html")
				req.ClientIP = "10.0.0.66"
				_, _, _ = node.Handle(req)
				// The paper's misbehaving site is a remote client, so every
				// attempt pays at least a network round trip. Without this
				// floor an in-process hog is an unpaced spin loop and the
				// experiment measures Go scheduler fairness on small
				// machines instead of the controller's isolation.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	res, err := runClosedLoop(node, clients, duration)
	close(stop)
	wg.Wait()
	return res, err
}

// microResourceNode builds the Match-1 node plus a misbehaving hog site,
// with capacities low enough that a memory hog congests the node.
func microResourceNode(withControls bool) (*core.Node, error) {
	matchScript := microSiteScript(ConfigMatch1)
	hogScript := `
		var p = new Policy();
		p.url = [ "hog.example.net" ];
		p.onResponse = function() {
			var s = "xxxxxxxxxxxxxxxx";
			while (true) { s = s + s; }
		};
		p.register();
	`
	upstream := core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case req.Path() == "/index.html":
			resp := httpmsg.NewHTMLResponse(200, staticPage)
			resp.SetMaxAge(600)
			return resp, nil
		case req.Path() == "/clientwall.js" || req.Path() == "/serverwall.js":
			r := httpmsg.NewTextResponse(200, `
				var p = new Policy();
				p.onRequest = function() { };
				p.onResponse = function() { };
				p.register();
			`)
			r.SetMaxAge(600)
			return r, nil
		case req.Host() == staticHost && req.Path() == "/nakika.js":
			r := httpmsg.NewTextResponse(200, matchScript)
			r.SetMaxAge(600)
			return r, nil
		case req.Host() == "hog.example.net" && req.Path() == "/nakika.js":
			r := httpmsg.NewTextResponse(200, hogScript)
			r.SetMaxAge(600)
			return r, nil
		default:
			return httpmsg.NewTextResponse(404, "not found"), nil
		}
	})
	return core.NewNode(core.Config{
		Name:            "resource-bench",
		Upstream:        upstream,
		EnableResources: withControls,
		ScriptLimits:    script.Limits{MaxSteps: 20_000_000, MaxHeapBytes: 1 << 20},
		Resources: resource.Config{
			// CPU capacity is sized so the Match-1 load alone stays well
			// below congestion while a single memory/CPU hog pipeline pushes
			// the node over it; memory capacity catches the doubling string.
			// The per-context heap limit is kept small so the hog's grind
			// (bounded by that limit per request) cannot starve the regular
			// load of wall-clock CPU on small machines — the test measures
			// the control loop's isolation, not allocator throughput.
			Capacity: map[resource.Kind]float64{
				resource.CPU:    10_000_000,
				resource.Memory: 2 << 20,
			},
			ControlInterval: 20 * time.Millisecond,
		},
	})
}

// runClosedLoop runs clients concurrent loops issuing the static-page
// request against node for the duration.
func runClosedLoop(node *core.Node, clients int, duration time.Duration) (LoadResult, error) {
	if clients <= 0 {
		clients = 1
	}
	var completed, rejected, terminated atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := pageRequest()
				req.ClientIP = fmt.Sprintf("10.0.%d.%d", c/250, c%250+1)
				resp, trace, err := node.Handle(req)
				if err != nil {
					continue
				}
				switch {
				case trace.RejectedBusy:
					rejected.Add(1)
				case trace.Terminated:
					terminated.Add(1)
				case resp.Status == 200:
					completed.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	res := LoadResult{
		Clients:    clients,
		Duration:   duration,
		Completed:  completed.Load(),
		Rejected:   rejected.Load(),
		Terminated: terminated.Load(),
	}
	res.Throughput = float64(res.Completed) / duration.Seconds()
	total := float64(res.Completed + res.Rejected + res.Terminated)
	if total > 0 {
		res.RejectedPct = float64(res.Rejected) / total * 100
		res.TerminatePct = float64(res.Terminated) / total * 100
	}
	return res, nil
}
