package vocab

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
	"nakika/internal/trace"
)

// recordingHost is a Host that records interactions for assertions.
type recordingHost struct {
	NopHost
	mu      sync.Mutex
	fetches []string
	fetchFn func(req *httpmsg.Request) (*httpmsg.Response, error)
	cache   map[string]*httpmsg.Response
	state   map[string]string
	logs    []string
	usage   float64
	delErr  error // StateDelete's answer
}

func newRecordingHost() *recordingHost {
	return &recordingHost{cache: make(map[string]*httpmsg.Response), state: make(map[string]string)}
}

func (h *recordingHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	h.mu.Lock()
	h.fetches = append(h.fetches, req.URL.String())
	h.mu.Unlock()
	if h.fetchFn != nil {
		return h.fetchFn(req)
	}
	return httpmsg.NewTextResponse(200, "fetched "+req.URL.Path), nil
}

func (h *recordingHost) CacheGet(site, key string) *httpmsg.Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cache[site+"\x00"+key]
}

func (h *recordingHost) CachePut(site, key string, resp *httpmsg.Response) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cache[site+"\x00"+key] = resp
}

func (h *recordingHost) Usage(site, resource string) float64 { return h.usage }

func (h *recordingHost) Log(site, message string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.logs = append(h.logs, site+": "+message)
}

func (h *recordingHost) StateGet(act *trace.Act, site, key string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.state[site+"/"+key]
	return v, ok
}

func (h *recordingHost) StatePut(act *trace.Act, site, key, value string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state[site+"/"+key] = value
	return nil
}

func (h *recordingHost) StateDelete(act *trace.Act, site, key string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.delErr != nil {
		return h.delErr
	}
	delete(h.state, site+"/"+key)
	return nil
}

func (h *recordingHost) StateKeys(act *trace.Act, site string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for k := range h.state {
		if strings.HasPrefix(k, site+"/") {
			out = append(out, strings.TrimPrefix(k, site+"/"))
		}
	}
	return out
}

func (h *recordingHost) NodeName() string { return "test-node" }

// newTestEnv builds a context with every vocabulary installed for a site.
func newTestEnv(host Host) *script.Context {
	ctx := script.NewContext(script.Limits{})
	Install(ctx, host, "example.org")
	return ctx
}

func run(t *testing.T, ctx *script.Context, src string) script.Value {
	t.Helper()
	v, err := ctx.RunSource(src, "test.js")
	if err != nil {
		t.Fatalf("script failed: %v", err)
	}
	return v
}

func TestSystemVocabulary(t *testing.T) {
	h := newRecordingHost()
	h.usage = 0.75
	ctx := newTestEnv(h)
	if v := run(t, ctx, `System.isLocal("10.1.2.3")`); !bool(v.(script.Bool)) {
		t.Error("10.x should be local")
	}
	if v := run(t, ctx, `System.isLocal("8.8.8.8")`); bool(v.(script.Bool)) {
		t.Error("8.8.8.8 should not be local")
	}
	if v := run(t, ctx, `System.usage("cpu")`); script.ToNumber(v) != 0.75 {
		t.Errorf("usage = %v", script.ToNumber(v))
	}
	if v := run(t, ctx, `System.nodeName`); script.ToString(v) != "test-node" {
		t.Errorf("nodeName = %q", script.ToString(v))
	}
	run(t, ctx, `System.log("hello from script")`)
	if len(h.logs) != 1 || !strings.Contains(h.logs[0], "hello from script") {
		t.Errorf("logs = %v", h.logs)
	}
	if v := run(t, ctx, `System.time()`); script.ToNumber(v) <= 0 {
		t.Error("System.time should be positive")
	}
}

func TestFetchVocabulary(t *testing.T) {
	h := newRecordingHost()
	ctx := newTestEnv(h)
	v := run(t, ctx, `
		var r = Fetch.get("http://origin.example.org/data.xml");
		r.status + ":" + r.body.toString()
	`)
	if script.ToString(v) != "200:fetched /data.xml" {
		t.Errorf("got %q", script.ToString(v))
	}
	if len(h.fetches) != 1 || h.fetches[0] != "http://origin.example.org/data.xml" {
		t.Errorf("fetches = %v", h.fetches)
	}
	// The bare fetch() alias works too.
	v = run(t, ctx, `fetch("http://origin.example.org/other").status`)
	if script.ToNumber(v) != 200 {
		t.Errorf("status = %v", script.ToNumber(v))
	}
	// Fetch errors become catchable script exceptions.
	h.fetchFn = func(req *httpmsg.Request) (*httpmsg.Response, error) {
		return nil, fmt.Errorf("connection refused")
	}
	v = run(t, ctx, `
		var msg = "";
		try { Fetch.get("http://down.example.org/"); } catch (e) { msg = e; }
		msg
	`)
	if !strings.Contains(script.ToString(v), "connection refused") {
		t.Errorf("error message = %q", script.ToString(v))
	}
}

func TestCacheVocabulary(t *testing.T) {
	h := newRecordingHost()
	ctx := newTestEnv(h)
	v := run(t, ctx, `Cache.get("missing")`)
	if !script.IsNullish(v) {
		t.Error("missing key should return null")
	}
	run(t, ctx, `Cache.put("thumb:pic.jpg", new ByteArray("tiny-jpeg-bytes"), 300, "image/jpeg")`)
	v = run(t, ctx, `
		var hit = Cache.get("thumb:pic.jpg");
		hit.contentType + ":" + hit.body.toString()
	`)
	if script.ToString(v) != "image/jpeg:tiny-jpeg-bytes" {
		t.Errorf("got %q", script.ToString(v))
	}
}

func TestStateVocabulary(t *testing.T) {
	h := newRecordingHost()
	ctx := newTestEnv(h)
	v := run(t, ctx, `
		State.put("user:42", JSON.stringify({ name: "maria", progress: 3 }));
		var u = JSON.parse(State.get("user:42"));
		u.name + ":" + u.progress
	`)
	if script.ToString(v) != "maria:3" {
		t.Errorf("got %q", script.ToString(v))
	}
	if v := run(t, ctx, `State.get("missing")`); !script.IsNullish(v) {
		t.Error("missing state key should return null")
	}
	v = run(t, ctx, `State.keys().length`)
	if script.ToNumber(v) != 1 {
		t.Errorf("keys length = %v", script.ToNumber(v))
	}
	run(t, ctx, `State.remove("user:42")`)
	if _, ok := h.state["example.org/user:42"]; ok {
		t.Error("remove should delete the key")
	}
	// No messaging service stands behind State.propagate: every call is a
	// script error, and the host's state is untouched.
	if _, err := ctx.RunSource(`State.propagate("put 1 5 xhello")`, "test.js"); err == nil || !strings.Contains(err.Error(), "State.propagate: no messaging service configured") {
		t.Errorf("State.propagate = %v, want the no-messaging error thrown", err)
	}
	if len(h.state) != 0 {
		t.Errorf("State.propagate changed the host's state: %v", h.state)
	}
}

// TestStateRemoveThrows: a delete the host could not make is a script
// error, as a failed put is, and try/catch sees it.
func TestStateRemoveThrows(t *testing.T) {
	h := newRecordingHost()
	h.delErr = fmt.Errorf("no reachable owner")
	ctx := newTestEnv(h)
	if _, err := ctx.RunSource(`State.remove("k")`, "test.js"); err == nil || !strings.Contains(err.Error(), "State.remove: no reachable owner") {
		t.Fatalf("uncaught remove = %v, want the host's error thrown", err)
	}
	v := run(t, ctx, `
		var caught = "";
		try { State.remove("k"); } catch (e) { caught = "" + e; }
		caught
	`)
	if got := script.ToString(v); !strings.Contains(got, "State.remove: no reachable owner") {
		t.Fatalf("caught %q, want the host's error", got)
	}
}

// leaseHost overrides the lease surface to model one round of arbitration:
// the first acquire of a name wins token 1, a second acquire while held is
// denied, and fenced puts are admitted only at the current token.
type leaseHost struct {
	NopHost
	mu     sync.Mutex
	tokens map[string]uint64
	puts   []string
}

func (h *leaseHost) LeaseAcquire(act *trace.Act, site, name string, ttl time.Duration) (uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens == nil {
		h.tokens = make(map[string]uint64)
	}
	if h.tokens[name] != 0 {
		return 0, false
	}
	h.tokens[name] = 1
	return 1, true
}

func (h *leaseHost) LeaseRenew(act *trace.Act, site, name string, token uint64, ttl time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tokens[name] == token
}

func (h *leaseHost) LeaseRelease(act *trace.Act, site, name string, token uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens[name] != token {
		return false
	}
	delete(h.tokens, name)
	return true
}

func (h *leaseHost) FencedStatePut(act *trace.Act, site, key, value, name string, token uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens[name] != token {
		return fmt.Errorf("write fenced off")
	}
	h.puts = append(h.puts, key+"="+value)
	return nil
}

func TestLeaseVocabulary(t *testing.T) {
	h := &leaseHost{}
	ctx := newTestEnv(h)
	v := run(t, ctx, `
		var token = Lease.acquire("checkpoint", 5000);
		Lease.put("progress", "42", "checkpoint", token);
		Lease.renew("checkpoint", token)
	`)
	if !bool(v.(script.Bool)) {
		t.Error("renew with the granted token should succeed")
	}
	if len(h.puts) != 1 || h.puts[0] != "progress=42" {
		t.Errorf("puts = %v", h.puts)
	}
	if v := run(t, ctx, `Lease.acquire("checkpoint")`); !script.IsNullish(v) {
		t.Error("second acquire while held should return null")
	}
	// A stale token must throw at Lease.put, not silently write.
	if _, err := ctx.RunSource(`Lease.put("progress", "43", "checkpoint", 99)`, "test.js"); err == nil {
		t.Error("fenced put with a stale token should throw")
	}
	if v := run(t, ctx, `Lease.release("checkpoint", 1)`); !bool(v.(script.Bool)) {
		t.Error("release with the granted token should succeed")
	}
	if v := run(t, ctx, `Lease.acquire("checkpoint")`); script.ToNumber(v) != 1 {
		t.Error("acquire after release should grant again")
	}
}

func TestPolicyConstructorAndRegistry(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	reg := &Registry{}
	InstallPolicyConstructor(ctx, reg)
	_, err := ctx.RunSource(`
		var p = new Policy();
		p.url = [ "med.nyu.edu", "medschool.pitt.edu" ];
		p.client = [ "nyu.edu", "pitt.edu" ];
		p.onResponse = function() { return 1; };
		p.register();

		var q = new Policy();
		q.url = "example.org";
		q.register();
	`, "figure3.js")
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Objects) != 2 {
		t.Fatalf("registered %d policies, want 2", len(reg.Objects))
	}
	urls, _ := reg.Objects[0].Get("url")
	if arr, ok := urls.(*script.Array); !ok || len(arr.Elems) != 2 {
		t.Errorf("first policy url = %v", urls)
	}
	// Calling Policy without new is an error the script can catch.
	v, err := ctx.RunSource(`
		var caught = false;
		try { Policy(); } catch (e) { caught = true; }
		caught
	`, "nonew.js")
	if err != nil {
		t.Fatal(err)
	}
	if !bool(v.(script.Bool)) {
		t.Error("calling Policy without new should throw")
	}
}

func TestBindRequest(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	req := httpmsg.MustRequest("GET", "http://med.nyu.edu/simm/module1.html?student=42")
	req.ClientIP = "192.168.1.10"
	req.Header.Set("User-Agent", "Nokia6600")
	req.Header.Set("Cookie", "session=s-123")
	req.Body = []byte("post-data")
	BindRequest(ctx, req)

	v := run(t, ctx, `Request.method + " " + Request.host + Request.path`)
	if script.ToString(v) != "GET med.nyu.edu/simm/module1.html" {
		t.Errorf("got %q", script.ToString(v))
	}
	if v := run(t, ctx, `Request.clientIP`); script.ToString(v) != "192.168.1.10" {
		t.Errorf("clientIP = %q", script.ToString(v))
	}
	if v := run(t, ctx, `Request.getHeader("User-Agent")`); script.ToString(v) != "Nokia6600" {
		t.Errorf("header = %q", script.ToString(v))
	}
	if v := run(t, ctx, `Request.cookie("session")`); script.ToString(v) != "s-123" {
		t.Errorf("cookie = %q", script.ToString(v))
	}
	if v := run(t, ctx, `Request.param("student")`); script.ToString(v) != "42" {
		t.Errorf("param = %q", script.ToString(v))
	}
	// Body reading in chunks.
	v = run(t, ctx, `
		var b = new ByteArray();
		var chunk;
		while (chunk = Request.read()) { b.append(chunk); }
		b.toString()
	`)
	if script.ToString(v) != "post-data" {
		t.Errorf("body = %q", script.ToString(v))
	}
	// Header mutation is visible on the Go side.
	run(t, ctx, `Request.setHeader("X-Injected", "yes"); Request.removeHeader("User-Agent");`)
	if req.Header.Get("X-Injected") != "yes" || req.Header.Get("User-Agent") != "" {
		t.Error("header mutations not applied")
	}
	// URL rewriting (the annotations extension interposes itself this way).
	run(t, ctx, `Request.setURL("http://simm.med.nyu.edu/simm/module1.html")`)
	if req.Host() != "simm.med.nyu.edu" || !req.Redirected {
		t.Errorf("URL rewrite not applied: %v", req.URL)
	}
	if v := run(t, ctx, `Request.host`); script.ToString(v) != "simm.med.nyu.edu" {
		t.Error("script-visible host should refresh after setURL")
	}
	// Method change.
	run(t, ctx, `Request.setMethod("post")`)
	if req.Method != "POST" {
		t.Errorf("method = %q", req.Method)
	}
}

func TestBindRequestTerminate(t *testing.T) {
	// Figure 5: reject unauthorized access to digital libraries with 401.
	ctx := script.NewContext(script.Limits{})
	h := newRecordingHost()
	Install(ctx, h, "bmj.bmjjournals.com")
	req := httpmsg.MustRequest("GET", "http://bmj.bmjjournals.com/cgi/reprint/1.pdf")
	req.ClientIP = "203.0.113.9" // not local
	BindRequest(ctx, req)
	_, err := ctx.RunSource(`
		if (! System.isLocal(Request.clientIP)) {
			Request.terminate(401);
		}
	`, "figure5.js")
	if err != nil {
		t.Fatal(err)
	}
	resp := req.Terminated()
	if resp == nil || resp.Status != 401 {
		t.Fatalf("expected 401 termination, got %+v", resp)
	}
	// Local clients pass.
	req2 := httpmsg.MustRequest("GET", "http://bmj.bmjjournals.com/cgi/reprint/1.pdf")
	req2.ClientIP = "10.5.5.5"
	BindRequest(ctx, req2)
	if _, err := ctx.RunSource(`
		if (! System.isLocal(Request.clientIP)) {
			Request.terminate(401);
		}
	`, "figure5.js"); err != nil {
		t.Fatal(err)
	}
	if req2.Terminated() != nil {
		t.Error("local client should not be terminated")
	}
}

func TestBindResponse(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	resp := httpmsg.NewHTMLResponse(200, "<html><body>original</body></html>")
	BindResponse(ctx, resp)
	if v := run(t, ctx, `Response.status`); script.ToNumber(v) != 200 {
		t.Errorf("status = %v", script.ToNumber(v))
	}
	if v := run(t, ctx, `Response.contentType`); script.ToString(v) != "text/html" {
		t.Errorf("contentType = %q", script.ToString(v))
	}
	// Reading in chunks reassembles the body.
	v := run(t, ctx, `
		var body = new ByteArray(), chunk;
		while (chunk = Response.read()) { body.append(chunk); }
		body.length
	`)
	if int(script.ToNumber(v)) != len("<html><body>original</body></html>") {
		t.Errorf("read length = %v", script.ToNumber(v))
	}
	// Rewriting the body.
	run(t, ctx, `
		Response.setHeader("Content-Type", "text/plain");
		Response.write("rewritten");
		Response.setStatus(203);
		Response.setMaxAge(120);
	`)
	if string(resp.Body) != "rewritten" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.Status != 203 || resp.ContentType() != "text/plain" {
		t.Errorf("status/type = %d %q", resp.Status, resp.ContentType())
	}
	if !resp.Generated {
		t.Error("write should mark the response as generated")
	}
	if resp.Header.Get("Cache-Control") != "max-age=120" {
		t.Errorf("cache-control = %q", resp.Header.Get("Cache-Control"))
	}
	// Subsequent writes append.
	run(t, ctx, `Response.write(" more")`)
	if string(resp.Body) != "rewritten more" {
		t.Errorf("append write = %q", resp.Body)
	}
}

func TestLargeBodyChunking(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	big := strings.Repeat("x", 3*bodyChunkSize+100)
	resp := httpmsg.NewTextResponse(200, big)
	BindResponse(ctx, resp)
	v := run(t, ctx, `
		var n = 0, chunks = 0, chunk;
		while (chunk = Response.read()) { n += chunk.length; chunks++; }
		chunks + ":" + n
	`)
	want := fmt.Sprintf("4:%d", len(big))
	if script.ToString(v) != want {
		t.Errorf("got %q, want %q", script.ToString(v), want)
	}
}

// makeTestPNG builds a width x height PNG for transcoding tests.
func makeTestPNG(t *testing.T, width, height int) []byte {
	t.Helper()
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			img.Set(x, y, color.RGBA{R: uint8(x % 256), G: uint8(y % 256), B: 128, A: 255})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestImageTransformer(t *testing.T) {
	ctx := newTestEnv(newRecordingHost())
	ctx.DefineGlobal("testImage", script.NewByteArray(makeTestPNG(t, 640, 480)))

	if v := run(t, ctx, `ImageTransformer.type("image/png")`); script.ToString(v) != "png" {
		t.Errorf("type = %q", script.ToString(v))
	}
	if v := run(t, ctx, `ImageTransformer.type("text/html")`); !script.IsNullish(v) {
		t.Error("non-image type should return null")
	}
	v := run(t, ctx, `
		var dim = ImageTransformer.dimensions(testImage, "png");
		dim.x + "x" + dim.y
	`)
	if script.ToString(v) != "640x480" {
		t.Errorf("dimensions = %q", script.ToString(v))
	}
	// Transform to JPEG at phone size and verify the output decodes with the
	// requested dimensions.
	v = run(t, ctx, `ImageTransformer.transform(testImage, "png", "jpeg", 176, 132)`)
	ba, ok := v.(*script.ByteArray)
	if !ok || len(ba.Data) == 0 {
		t.Fatalf("transform returned %T", v)
	}
	cfg, format, err := image.DecodeConfig(bytes.NewReader(ba.Data))
	if err != nil {
		t.Fatal(err)
	}
	if format != "jpeg" || cfg.Width != 176 || cfg.Height != 132 {
		t.Errorf("output = %s %dx%d", format, cfg.Width, cfg.Height)
	}
	// Invalid input is a catchable error.
	v = run(t, ctx, `
		var ok = false;
		try { ImageTransformer.dimensions(new ByteArray("not an image"), "png"); } catch (e) { ok = true; }
		ok
	`)
	if !bool(v.(script.Bool)) {
		t.Error("invalid image should throw")
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	// Run the paper's Figure 2 handler verbatim against a real oversized
	// image and real Response/ImageTransformer vocabularies.
	ctx := newTestEnv(newRecordingHost())
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "image/png")
	resp.SetBody(makeTestPNG(t, 800, 600))
	BindResponse(ctx, resp)

	_, err := ctx.RunSource(`
		onResponse = function() {
			var buff = null, body = new ByteArray();
			while (buff = Response.read()) {
				body.append(buff);
			}
			var type = ImageTransformer.type(Response.contentType);
			var dim = ImageTransformer.dimensions(body, type);
			if (dim.x > 176 || dim.y > 208) {
				var img;
				if (dim.x/176 > dim.y/208) {
					img = ImageTransformer.transform(body, type, "jpeg", 176, dim.y/dim.x*208);
				} else {
					img = ImageTransformer.transform(body, type, "jpeg", dim.x/dim.y*176, 208);
				}
				Response.setHeader("Content-Type", "image/jpeg");
				Response.setHeader("Content-Length", img.length);
				Response.write(img);
			}
		};
		onResponse();
	`, "figure2.js")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentType() != "image/jpeg" {
		t.Errorf("content type = %q", resp.ContentType())
	}
	cfg, format, err := image.DecodeConfig(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if format != "jpeg" {
		t.Errorf("format = %q", format)
	}
	if cfg.Width > 176 || cfg.Height > 208 {
		t.Errorf("transcoded image %dx%d does not fit 176x208", cfg.Width, cfg.Height)
	}
}

func TestXMLVocabulary(t *testing.T) {
	ctx := newTestEnv(newRecordingHost())
	doc := `<module id="m1"><title>Aortic Aneurysm</title><section n="1"><p>Presentation</p></section><section n="2"><p>Treatment</p></section></module>`
	ctx.DefineGlobal("doc", script.Str(doc))

	v := run(t, ctx, `
		var root = XML.parse(doc);
		root.name + ":" + root.attrs.id + ":" + root.children.length
	`)
	if script.ToString(v) != "module:m1:3" {
		t.Errorf("got %q", script.ToString(v))
	}
	v = run(t, ctx, `XML.text(XML.find(XML.parse(doc), "title"))`)
	if script.ToString(v) != "Aortic Aneurysm" {
		t.Errorf("title = %q", script.ToString(v))
	}
	v = run(t, ctx, `XML.findAll(XML.parse(doc), "section").length`)
	if script.ToNumber(v) != 2 {
		t.Errorf("sections = %v", script.ToNumber(v))
	}
	// Parse → serialize round trip preserves structure.
	v = run(t, ctx, `
		var again = XML.parse(XML.serialize(XML.parse(doc)));
		XML.findAll(again, "section").length + ":" + XML.text(XML.find(again, "title"))
	`)
	if script.ToString(v) != "2:Aortic Aneurysm" {
		t.Errorf("round trip lost structure: %q", script.ToString(v))
	}
	// Escaping.
	if v := run(t, ctx, `XML.escape("a < b & c")`); script.ToString(v) != "a &lt; b &amp; c" {
		t.Errorf("escape = %q", script.ToString(v))
	}
	// Invalid XML throws a catchable error.
	v = run(t, ctx, `
		var ok = false;
		try { XML.parse("<unclosed>"); } catch (e) { ok = true; }
		ok
	`)
	if !bool(v.(script.Bool)) {
		t.Error("invalid XML should throw")
	}
}

func TestParseXMLGo(t *testing.T) {
	node, err := parseXML("<p:a x=\"1\" p:y='&lt;2&#x3E;'>\r\n <b>hi</b><![CDATA[ & ]]><b>th<!-- c -->ere</b><c/>\r\n</p:a>")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(node.Keys(), ","); got != "name,attrs,text,children" {
		t.Errorf("node keys = %s", got)
	}
	name, _ := node.Get("name")
	attrs, _ := node.Get("attrs")
	x, _ := attrs.(*script.Object).Get("x")
	y, _ := attrs.(*script.Object).Get("y")
	text, _ := node.Get("text")
	children, _ := node.Get("children")
	if script.ToString(name) != "a" || script.ToString(x) != "1" || script.ToString(y) != "<2>" ||
		script.ToString(text) != " & " || children.(*script.Array).Len() != 3 {
		t.Errorf("node = %s %s %s %q %d children", name, x, y, text, children.(*script.Array).Len())
	}
	second, _ := children.(*script.Array).Elems[1].(*script.Object).Get("text")
	if script.ToString(second) != "there" {
		t.Errorf("text around a comment = %q", second)
	}
	for _, doc := range []string{"just text", "<a>", "<a></b>", `<a x=1/>`, `<a x="<"/>`, "<1a/>", "<a>&nbsp;</a>", "<a>\x00</a>", "<a/><b>"} {
		if _, err := parseXML(doc); err == nil {
			t.Errorf("parseXML(%q) accepted", doc)
		}
	}
	if _, err := parseXML("<a>\n<b></c></a>"); err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Errorf("error = %v, want one on line 2", err)
	}
}

func TestNopHost(t *testing.T) {
	var h NopHost
	resp, err := h.Fetch(httpmsg.MustRequest("GET", "http://x.org/"))
	if err != nil || resp.Status != 502 {
		t.Errorf("NopHost.Fetch = %v %v", resp, err)
	}
	if h.CacheGet("s", "x") != nil {
		t.Error("NopHost cache should miss")
	}
	if !h.IsLocalClient("127.0.0.1") || h.IsLocalClient("203.0.113.8") {
		t.Error("NopHost.IsLocalClient defaults wrong")
	}
	if _, ok := h.StateGet(nil, "s", "k"); ok {
		t.Error("NopHost state should miss")
	}
	if h.NodeName() == "" {
		t.Error("NodeName should be non-empty")
	}
}
