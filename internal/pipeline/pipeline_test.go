package pipeline

import (
	"strings"
	"sync"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/policy"
	"nakika/internal/resource"
	"nakika/internal/script"
	"nakika/internal/vocab"
)

// scriptHost serves stage scripts and origin resources from in-memory maps;
// it stands in for the proxy's fetch path in pipeline unit tests.
type scriptHost struct {
	vocab.NopHost
	mu      sync.Mutex
	scripts map[string]string // script URL -> source
	origin  map[string]string // full URL -> body
	fetches []string
	logs    []string
}

func newScriptHost() *scriptHost {
	return &scriptHost{scripts: make(map[string]string), origin: make(map[string]string)}
}

func (h *scriptHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	h.mu.Lock()
	h.fetches = append(h.fetches, req.URL.String())
	h.mu.Unlock()
	if src, ok := h.scripts[req.URL.String()]; ok {
		resp := httpmsg.NewTextResponse(200, src)
		resp.Header.Set("Content-Type", "application/javascript")
		return resp, nil
	}
	if body, ok := h.origin[req.URL.String()]; ok {
		return httpmsg.NewHTMLResponse(200, body), nil
	}
	return httpmsg.NewTextResponse(404, "not found"), nil
}

func (h *scriptHost) Log(site, message string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.logs = append(h.logs, site+"|"+message)
}

func (h *scriptHost) NodeName() string { return "pipeline-test-node" }

// The walls the tests' executors run.
const (
	testClientWall = "http://nakika.net/clientwall.js"
	testServerWall = "http://nakika.net/serverwall.js"
)

// newExecutor wires a loader, host, and origin fetcher into an executor with
// both walls. The origin fetcher serves from the host's origin map so tests
// can distinguish script fetches from content fetches.
func newExecutor(h *scriptHost) *Executor {
	loader := NewLoader(h, script.Limits{})
	return &Executor{
		Loader:        loader,
		Host:          h,
		ClientWallURL: testClientWall,
		ServerWallURL: testServerWall,
		FetchOrigin: func(req *httpmsg.Request) (*httpmsg.Response, error) {
			h.mu.Lock()
			body, ok := h.origin[req.URL.String()]
			h.mu.Unlock()
			if !ok {
				return httpmsg.NewTextResponse(404, "not found"), nil
			}
			return httpmsg.NewHTMLResponse(200, body), nil
		},
	}
}

func TestPlainPassThrough(t *testing.T) {
	h := newScriptHost()
	h.origin["http://example.org/page.html"] = "<html>hello</html>"
	e := newExecutor(h)
	req := httpmsg.MustRequest("GET", "http://example.org/page.html")
	resp, trace, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "<html>hello</html>" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	// The three stages ran (clientwall, site script, serverwall), all
	// empty, and the origin was fetched.
	if len(trace.Stages) != 3 {
		t.Errorf("stages = %d, want 3", len(trace.Stages))
	}
	if trace.Stages[0].ScriptURL != testClientWall {
		t.Errorf("first stage = %s", trace.Stages[0].ScriptURL)
	}
	if trace.Stages[1].ScriptURL != "http://example.org/nakika.js" {
		t.Errorf("second stage = %s", trace.Stages[1].ScriptURL)
	}
	if trace.Stages[2].ScriptURL != testServerWall {
		t.Errorf("third stage = %s", trace.Stages[2].ScriptURL)
	}
	if trace.Generated {
		t.Error("pass-through should not be marked generated")
	}
}

func TestSiteOnResponseTransformsContent(t *testing.T) {
	h := newScriptHost()
	h.origin["http://example.org/page.html"] = "<html>hello</html>"
	h.scripts["http://example.org/nakika.js"] = `
		var p = new Policy();
		p.url = [ "example.org" ];
		p.onResponse = function() {
			var body = new ByteArray(), chunk;
			while (chunk = Response.read()) { body.append(chunk); }
			Response.write(body.toString().toUpperCase());
			Response.setHeader("X-Processed-By", System.nodeName);
		};
		p.register();
	`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://example.org/page.html"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "<HTML>HELLO</HTML>" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.Header.Get("X-Processed-By") != "pipeline-test-node" {
		t.Error("vocabulary access inside onResponse failed")
	}
	if !trace.Stages[1].Matched || !trace.Stages[1].RanResponse {
		t.Errorf("site stage trace = %+v", trace.Stages[1])
	}
}

func TestOnRequestTerminates(t *testing.T) {
	// Figure 5: block non-local clients from digital library URLs.
	h := newScriptHost()
	h.origin["http://content.nejm.org/cgi/reprint/1.pdf"] = "PDF-BYTES"
	h.scripts[testClientWall] = `
		var p = new Policy();
		p.url = [ "bmj.bmjjournals.com/cgi/reprint", "content.nejm.org/cgi/reprint" ];
		p.onRequest = function() {
			if (! System.isLocal(Request.clientIP)) {
				Request.terminate(401);
			}
		};
		p.register();
	`
	e := newExecutor(h)

	req := httpmsg.MustRequest("GET", "http://content.nejm.org/cgi/reprint/1.pdf")
	req.ClientIP = "203.0.113.50"
	resp, trace, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 401 {
		t.Errorf("status = %d, want 401", resp.Status)
	}
	if !trace.Generated {
		t.Error("termination should mark the response generated")
	}
	// The origin must not have been contacted.
	for _, f := range h.fetches {
		if strings.Contains(f, "/cgi/reprint/1.pdf") {
			t.Error("origin should not be fetched after termination")
		}
	}
	// Local clients get through.
	req2 := httpmsg.MustRequest("GET", "http://content.nejm.org/cgi/reprint/1.pdf")
	req2.ClientIP = "10.0.0.7"
	resp2, _, err := e.Execute(req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Status != 200 || string(resp2.Body) != "PDF-BYTES" {
		t.Errorf("local client resp = %d %q", resp2.Status, resp2.Body)
	}
}

func TestOnRequestGeneratesContent(t *testing.T) {
	// An onRequest handler can create a response from scratch, avoiding the
	// origin entirely (more efficient when responses are created from
	// scratch, Section 3.1).
	h := newScriptHost()
	h.scripts["http://dynamic.example.org/nakika.js"] = `
		var p = new Policy();
		p.url = [ "dynamic.example.org/generated" ];
		p.onRequest = function() {
			Response.setHeader("Content-Type", "text/plain");
			Response.write("generated at the edge for " + Request.path);
		};
		p.register();
	`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://dynamic.example.org/generated/report"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "generated at the edge for /generated/report" {
		t.Errorf("body = %q", resp.Body)
	}
	if !trace.Generated || !resp.Generated {
		t.Error("response should be marked generated")
	}
	// Later stages (serverwall) must not run their onRequest, but earlier
	// stages' onResponse still unwinds; with empty walls there is nothing to
	// check beyond stage count: clientwall + site stage only reached.
	if len(trace.Stages) != 2 {
		t.Errorf("stages = %d, want 2 (serverwall skipped)", len(trace.Stages))
	}
}

func TestOnRequestReturnsResponseObject(t *testing.T) {
	h := newScriptHost()
	h.scripts["http://api.example.org/nakika.js"] = `
		var p = new Policy();
		p.url = [ "api.example.org" ];
		p.onRequest = function() {
			return { status: 302, headers: { "Location": "http://elsewhere.example.org/" }, body: "moved" };
		};
		p.register();
	`
	e := newExecutor(h)
	resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://api.example.org/old"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 302 || resp.Header.Get("Location") != "http://elsewhere.example.org/" {
		t.Errorf("resp = %d %v", resp.Status, resp.Header)
	}
}

func TestRequestRewriteRedirectsOriginFetch(t *testing.T) {
	// A stage rewrites the URL; the origin fetch uses the rewritten URL.
	h := newScriptHost()
	h.origin["http://backend.example.org/v2/data"] = "v2 data"
	h.scripts["http://frontend.example.org/nakika.js"] = `
		var p = new Policy();
		p.url = [ "frontend.example.org" ];
		p.onRequest = function() {
			Request.setURL("http://backend.example.org/v2" + Request.path);
		};
		p.register();
	`
	e := newExecutor(h)
	resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://frontend.example.org/data"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "v2 data" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestDynamicallyScheduledStages(t *testing.T) {
	// The annotations pattern from Section 5.4: a site schedules an
	// annotation stage plus the original service; the annotation stage adds
	// markup to the response produced downstream.
	h := newScriptHost()
	h.origin["http://simms.med.nyu.edu/module1.html"] = "<html><body>lecture</body></html>"
	h.scripts["http://annotations.example.org/nakika.js"] = `
		var p = new Policy();
		p.url = [ "annotations.example.org" ];
		p.onRequest = function() {
			Request.setURL("http://simms.med.nyu.edu" + Request.path);
		};
		p.nextStages = [ "http://annotations.example.org/annotate.js" ];
		p.register();
	`
	h.scripts["http://annotations.example.org/annotate.js"] = `
		var p = new Policy();
		p.onResponse = function() {
			var body = new ByteArray(), chunk;
			while (chunk = Response.read()) { body.append(chunk); }
			var html = body.toString().replace("</body>", "<div class='post-it'>note</div></body>");
			Response.write(html);
		};
		p.register();
	`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://annotations.example.org/module1.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "post-it") || !strings.Contains(string(resp.Body), "lecture") {
		t.Errorf("body = %q", resp.Body)
	}
	// Stage order: clientwall, annotations nakika.js, annotate.js (dynamic),
	// serverwall.
	if len(trace.Stages) != 4 {
		t.Fatalf("stages = %d, want 4: %+v", len(trace.Stages), trace.Stages)
	}
	if trace.Stages[2].ScriptURL != "http://annotations.example.org/annotate.js" {
		t.Errorf("dynamic stage placed at %v", trace.Stages[2].ScriptURL)
	}
}

func TestDynamicStagesRunBeforeAlreadyScheduled(t *testing.T) {
	// A dynamically scheduled stage must run directly after its scheduling
	// stage, before the serverwall that was already scheduled.
	h := newScriptHost()
	h.origin["http://site.example.org/x"] = "content"
	h.scripts["http://site.example.org/nakika.js"] = `
		var p = new Policy();
		p.nextStages = [ "http://site.example.org/extra.js" ];
		p.register();
	`
	h.scripts["http://site.example.org/extra.js"] = `
		var p = new Policy();
		p.onResponse = function() { Response.setHeader("X-Extra", "yes"); };
		p.register();
	`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://site.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Extra") != "yes" {
		t.Error("dynamic stage did not run")
	}
	order := []string{}
	for _, s := range trace.Stages {
		order = append(order, s.ScriptURL)
	}
	want := []string{
		testClientWall,
		"http://site.example.org/nakika.js",
		"http://site.example.org/extra.js",
		testServerWall,
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("stage %d = %s, want %s", i, order[i], want[i])
		}
	}
}

func TestOnResponseUnwindOrder(t *testing.T) {
	// onResponse handlers run in reverse order of stage execution, so the
	// clientwall sees the final content last.
	h := newScriptHost()
	h.origin["http://site.example.org/x"] = "base"
	h.scripts[testClientWall] = `
		var p = new Policy();
		p.onResponse = function() {
			var b = new ByteArray(), c;
			while (c = Response.read()) { b.append(c); }
			Response.write(b.toString() + "+clientwall");
		};
		p.register();
	`
	h.scripts["http://site.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() {
			var b = new ByteArray(), c;
			while (c = Response.read()) { b.append(c); }
			Response.write(b.toString() + "+site");
		};
		p.register();
	`
	e := newExecutor(h)
	resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://site.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "base+site+clientwall" {
		t.Errorf("body = %q (unwind order wrong)", resp.Body)
	}
}

func TestServerWallBlocksEmission(t *testing.T) {
	// Emission control: the server-side administrative stage can reject
	// requests to protect other web servers from exploits carried through
	// the architecture.
	h := newScriptHost()
	h.origin["http://victim.example.org/search?q=huge"] = "results"
	h.scripts[testServerWall] = `
		var p = new Policy();
		p.url = [ "victim.example.org" ];
		p.onRequest = function() { Request.terminate(403); };
		p.register();
	`
	e := newExecutor(h)
	resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://victim.example.org/search?q=huge"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 403 {
		t.Errorf("status = %d, want 403", resp.Status)
	}
	for _, f := range h.fetches {
		if strings.Contains(f, "victim.example.org/search") {
			t.Error("blocked request must not reach the origin")
		}
	}
}

func TestClosestMatchWithinStage(t *testing.T) {
	h := newScriptHost()
	h.origin["http://media.example.org/images/big.png"] = "PNGDATA"
	h.origin["http://media.example.org/docs/readme.txt"] = "text"
	h.scripts["http://media.example.org/nakika.js"] = `
		var generic = new Policy();
		generic.url = [ "media.example.org" ];
		generic.onResponse = function() { Response.setHeader("X-Handler", "generic"); };
		generic.register();

		var images = new Policy();
		images.url = [ "media.example.org/images" ];
		images.onResponse = function() { Response.setHeader("X-Handler", "images"); };
		images.register();
	`
	e := newExecutor(h)
	resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://media.example.org/images/big.png"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Handler") != "images" {
		t.Errorf("handler = %q, want images (closest match)", resp.Header.Get("X-Handler"))
	}
	resp2, _, err := e.Execute(httpmsg.MustRequest("GET", "http://media.example.org/docs/readme.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Header.Get("X-Handler") != "generic" {
		t.Errorf("handler = %q, want generic", resp2.Header.Get("X-Handler"))
	}
}

func TestBrokenScriptDoesNotBreakPipeline(t *testing.T) {
	h := newScriptHost()
	h.origin["http://broken.example.org/x"] = "still served"
	h.scripts["http://broken.example.org/nakika.js"] = `this is not valid javascript ((`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://broken.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "still served" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if trace.Stages[1].Err == "" {
		t.Error("trace should record the script error")
	}
}

func TestHandlerRuntimeErrorIsContained(t *testing.T) {
	h := newScriptHost()
	h.origin["http://faulty.example.org/x"] = "content"
	h.scripts["http://faulty.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() { nonexistentFunction(); };
		p.register();
	`
	e := newExecutor(h)
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://faulty.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "content" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	found := false
	for _, s := range trace.Stages {
		if s.Err != "" {
			found = true
		}
	}
	if !found {
		t.Error("handler error should be recorded in the trace")
	}
}

func TestMissingSiteScriptNegativelyCached(t *testing.T) {
	h := newScriptHost()
	h.origin["http://nositescript.example.org/a"] = "a"
	h.origin["http://nositescript.example.org/b"] = "b"
	e := newExecutor(h)
	if _, _, err := e.Execute(httpmsg.MustRequest("GET", "http://nositescript.example.org/a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Execute(httpmsg.MustRequest("GET", "http://nositescript.example.org/b")); err != nil {
		t.Fatal(err)
	}
	// The nakika.js probe should have happened exactly once thanks to the
	// negative cache.
	probes := 0
	for _, f := range h.fetches {
		if strings.HasSuffix(f, "nositescript.example.org/nakika.js") {
			probes++
		}
	}
	if probes != 1 {
		t.Errorf("nakika.js probed %d times, want 1", probes)
	}
}

func TestStageCacheReuse(t *testing.T) {
	h := newScriptHost()
	h.origin["http://cached.example.org/x"] = "x"
	h.scripts["http://cached.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() { Response.setHeader("X-S", "1"); };
		p.register();
	`
	e := newExecutor(h)
	for i := 0; i < 5; i++ {
		if _, _, err := e.Execute(httpmsg.MustRequest("GET", "http://cached.example.org/x")); err != nil {
			t.Fatal(err)
		}
	}
	loads := 0
	for _, f := range h.fetches {
		if strings.HasSuffix(f, "cached.example.org/nakika.js") {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("site script fetched %d times, want 1 (stage cache)", loads)
	}
}

func TestMaxStagesBound(t *testing.T) {
	// A script that keeps scheduling itself must be cut off.
	h := newScriptHost()
	h.origin["http://loop.example.org/x"] = "x"
	h.scripts["http://loop.example.org/nakika.js"] = `
		var p = new Policy();
		p.nextStages = [ "http://loop.example.org/nakika.js" ];
		p.register();
	`
	e := newExecutor(h)
	e.MaxStages = 10
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://loop.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
	if len(trace.Stages) > 10 {
		t.Errorf("stages = %d, exceeds MaxStages", len(trace.Stages))
	}
}

func TestResourceManagerIntegration(t *testing.T) {
	h := newScriptHost()
	h.origin["http://busy.example.org/x"] = "x"
	h.scripts["http://busy.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() {
			var t = 0;
			for (var i = 0; i < 5000; i++) { t += i; }
			Response.setHeader("X-Work", t);
		};
		p.register();
	`
	mgr := resource.NewManager(resource.Config{
		Capacity: map[resource.Kind]float64{resource.CPU: 1000},
	})
	e := newExecutor(h)
	e.Resources = mgr
	if _, _, err := e.Execute(httpmsg.MustRequest("GET", "http://busy.example.org/x")); err != nil {
		t.Fatal(err)
	}
	// The site consumed far more than 1000 CPU units, so after a control
	// round it is congested and throttled: a throttled request comes back as
	// server-busy (503).
	mgr.ControlOnce()
	sawBusy := false
	for i := 0; i < 50; i++ {
		resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://busy.example.org/x"))
		if err != nil {
			t.Fatal(err)
		}
		if trace.RejectedBusy {
			if resp.Status != 503 {
				t.Errorf("busy rejection status = %d", resp.Status)
			}
			sawBusy = true
			break
		}
	}
	if !sawBusy {
		t.Error("expected at least one server-busy rejection while throttled")
	}
}

func TestMemoryHogTerminatedByLimits(t *testing.T) {
	// The misbehaving script from Section 5.1 consumes all available memory
	// by repeatedly doubling a string; per-context heap limits contain it.
	h := newScriptHost()
	h.origin["http://hog.example.org/x"] = "x"
	h.scripts["http://hog.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() {
			var s = "xxxxxxxxxxxxxxxx";
			while (true) { s = s + s; }
		};
		p.register();
	`
	e := newExecutor(h)
	e.Loader = NewLoader(h, script.Limits{MaxHeapBytes: 1 << 20, MaxSteps: 10_000_000})
	resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://hog.example.org/x"))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Terminated {
		t.Error("memory hog should be terminated")
	}
	if resp.Status != 503 {
		t.Errorf("status = %d, want 503", resp.Status)
	}
}

func TestPolicyInputClientHost(t *testing.T) {
	h := newScriptHost()
	h.origin["http://edu.example.org/x"] = "x"
	h.scripts["http://edu.example.org/nakika.js"] = `
		var p = new Policy();
		p.client = [ "nyu.edu" ];
		p.onResponse = function() { Response.setHeader("X-Edu", "yes"); };
		p.register();
	`
	e := newExecutor(h)
	e.ClientHostLookup = func(ip string) string {
		if ip == "10.9.9.9" {
			return "dialup.med.nyu.edu"
		}
		return ""
	}
	req := httpmsg.MustRequest("GET", "http://edu.example.org/x")
	req.ClientIP = "10.9.9.9"
	resp, _, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Edu") != "yes" {
		t.Error("client host lookup should feed client predicates")
	}
	req2 := httpmsg.MustRequest("GET", "http://edu.example.org/x")
	req2.ClientIP = "203.0.113.77"
	resp2, _, err := e.Execute(req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Header.Get("X-Edu") != "" {
		t.Error("unknown client should not match the nyu.edu predicate")
	}
}

func TestConcurrentPipelines(t *testing.T) {
	h := newScriptHost()
	h.origin["http://conc.example.org/x"] = "x"
	h.scripts["http://conc.example.org/nakika.js"] = `
		var p = new Policy();
		p.onResponse = function() {
			var b = new ByteArray(), c;
			while (c = Response.read()) { b.append(c); }
			Response.write(b.toString() + "!");
		};
		p.register();
	`
	e := newExecutor(h)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, _, err := e.Execute(httpmsg.MustRequest("GET", "http://conc.example.org/x"))
				if err != nil {
					errs <- err
					return
				}
				if string(resp.Body) != "x!" {
					errs <- &script.RuntimeError{Msg: "unexpected body " + string(resp.Body)}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLoadSourceStage: a stage built from generated source text (the way
// the deployment plane compiles a published bundle) registers its policies
// like a fetched one.
func TestLoadSourceStage(t *testing.T) {
	h := newScriptHost()
	loader := NewLoader(h, script.Limits{})
	stage, err := loader.Compile("generated://blacklist", "nakika.net", `
		var p = new Policy();
		p.url = [ "blocked.example.org" ];
		p.onRequest = function() { Request.terminate(403); };
		p.register();
	`)
	if err != nil {
		t.Fatal(err)
	}
	if stage.Empty || len(stage.Policies()) != 1 {
		t.Fatalf("stage = %+v", stage)
	}
	in := policy.Input{Host: "blocked.example.org", Path: "/", Method: "GET"}
	if stage.Match(in) == nil {
		t.Error("generated stage should match the blacklisted host")
	}
}
