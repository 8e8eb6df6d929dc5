package core

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
	"nakika/internal/resource"
	"nakika/internal/state"
	"nakika/internal/transport"
)

// memOrigin is an in-memory upstream serving scripts and content, counting
// hits per URL.
type memOrigin struct {
	mu        sync.Mutex
	resources map[string]*httpmsg.Response
	hits      map[string]int
	posts     map[string][]string
}

func newMemOrigin() *memOrigin {
	return &memOrigin{resources: make(map[string]*httpmsg.Response), hits: make(map[string]int), posts: make(map[string][]string)}
}

func (o *memOrigin) addText(url, body string, maxAge int) {
	r := httpmsg.NewHTMLResponse(200, body)
	if maxAge > 0 {
		r.SetMaxAge(maxAge)
	}
	o.resources[url] = r
}

func (o *memOrigin) addScript(url, src string) {
	r := httpmsg.NewTextResponse(200, src)
	r.Header.Set("Content-Type", "application/javascript")
	r.SetMaxAge(300)
	o.resources[url] = r
}

func (o *memOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	url := req.URL.String()
	o.hits[url]++
	if req.Method == "POST" {
		o.posts[url] = append(o.posts[url], string(req.Body))
		return httpmsg.NewTextResponse(200, "ok"), nil
	}
	if r, ok := o.resources[url]; ok {
		return r.Clone(), nil
	}
	return httpmsg.NewTextResponse(404, "not found"), nil
}

func (o *memOrigin) hitCount(url string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits[url]
}

func newTestNode(t *testing.T, name string, origin *memOrigin, mutate func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Name:          name,
		Region:        "us-east",
		Upstream:      origin,
		LocalNetworks: []string{"10.0.0.0/8", "192.168.0.0/16"},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeRequiresName(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("expected error for missing name")
	}
	if _, err := NewNode(Config{Name: "x", LocalNetworks: []string{"not-a-cidr"}}); err == nil {
		t.Error("expected error for invalid local network")
	}
	// Successor lists are the only cross-node replication mode: there is no
	// negative factor to ask for another one.
	cfg := Config{Name: "x", Ring: overlay.NewRing(), Transport: transport.NewLocal(), ReplicationFactor: -1}
	if _, err := NewNode(cfg); err == nil {
		t.Error("expected error for a negative replication factor")
	}
	if members := cfg.Ring.Nodes(); len(members) != 0 {
		t.Errorf("rejected node joined the ring: %v", members)
	}
}

func TestProxyPassThroughAndCaching(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://example.org/page.html", "<html>hi</html>", 300)
	n := newTestNode(t, "edge-1", origin, nil)

	for i := 0; i < 3; i++ {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://example.org/page.html"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || string(resp.Body) != "<html>hi</html>" {
			t.Fatalf("resp = %d %q", resp.Status, resp.Body)
		}
		if resp.Header.Get("X-Na-Kika-Node") != "edge-1" {
			t.Error("node header missing")
		}
	}
	// One origin access plus one probe for the missing nakika.js; repeats
	// served from cache.
	if got := origin.hitCount("http://example.org/page.html"); got != 1 {
		t.Errorf("origin content hits = %d, want 1", got)
	}
	st := n.Stats()
	if st.Requests != 3 || st.CacheHits != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSiteScriptTransformsThroughNode(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://med.nyu.edu/simm/lecture.xml", "<lecture><title>Aneurysm</title></lecture>", 60)
	origin.addScript("http://med.nyu.edu/nakika.js", `
		var p = new Policy();
		p.url = [ "med.nyu.edu/simm" ];
		p.onResponse = function() {
			var body = new ByteArray(), c;
			while (c = Response.read()) { body.append(c); }
			var doc = XML.parse(body.toString());
			var title = XML.text(XML.find(doc, "title"));
			Response.setHeader("Content-Type", "text/html");
			Response.write("<html><h1>" + title + "</h1></html>");
		};
		p.register();
	`)
	n := newTestNode(t, "edge-1", origin, nil)
	resp, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://med.nyu.edu/simm/lecture.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "<html><h1>Aneurysm</h1></html>" {
		t.Errorf("body = %q", resp.Body)
	}
	if len(trace.Stages) != 3 {
		t.Errorf("stages = %d", len(trace.Stages))
	}
}

func TestAdminWallThroughNode(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://content.nejm.org/cgi/reprint/1.pdf", "PDF", 60)
	origin.addScript("http://nakika.net/clientwall.js", `
		var p = new Policy();
		p.url = [ "content.nejm.org/cgi/reprint" ];
		p.onRequest = function() {
			if (! System.isLocal(Request.clientIP)) { Request.terminate(401); }
		};
		p.register();
	`)
	n := newTestNode(t, "edge-1", origin, nil)

	outside := httpmsg.MustRequest("GET", "http://content.nejm.org/cgi/reprint/1.pdf")
	outside.ClientIP = "203.0.113.4"
	resp, _, err := n.Handle(outside)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 401 {
		t.Errorf("outside client status = %d", resp.Status)
	}
	inside := httpmsg.MustRequest("GET", "http://content.nejm.org/cgi/reprint/1.pdf")
	inside.ClientIP = "10.3.2.1"
	resp, _, err = n.Handle(inside)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("inside client status = %d", resp.Status)
	}
}

func TestCooperativeCaching(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://heavy.example.org/video.mp4", strings.Repeat("v", 10_000), 600)
	ring := overlay.NewRing()
	dir := NewDirectory()
	mutate := func(cfg *Config) {
		cfg.Ring = ring
		cfg.Directory = dir
	}
	a := newTestNode(t, "edge-a", origin, mutate)
	b := newTestNode(t, "edge-b", origin, mutate)

	// Node A fetches from the origin and publishes to the overlay index.
	if _, _, err := a.Handle(httpmsg.MustRequest("GET", "http://heavy.example.org/video.mp4")); err != nil {
		t.Fatal(err)
	}
	// Node B should get it from node A's cache, not the origin.
	if _, _, err := b.Handle(httpmsg.MustRequest("GET", "http://heavy.example.org/video.mp4")); err != nil {
		t.Fatal(err)
	}
	if got := origin.hitCount("http://heavy.example.org/video.mp4"); got != 1 {
		t.Errorf("origin hits = %d, want 1 (one cached copy suffices)", got)
	}
	if b.Stats().PeerHits != 1 {
		t.Errorf("peer hits = %d, want 1", b.Stats().PeerHits)
	}
	// The lookups that found the copy show on the node's /metrics.
	var sb strings.Builder
	if err := b.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nnakika_overlay_lookups_total ") || strings.Contains(sb.String(), "\nnakika_overlay_lookups_total 0\n") {
		t.Errorf("exposition lacks a non-zero overlay lookup count:\n%s", sb.String())
	}
}

func TestHardStateReplicationAcrossNodes(t *testing.T) {
	origin := newMemOrigin()
	origin.addScript("http://app.example.org/nakika.js", `
		var p = new Policy();
		p.url = [ "app.example.org/register" ];
		p.onRequest = function() {
			var user = Request.param("user");
			State.put("user:" + user, JSON.stringify({ name: user }));
			Response.setHeader("Content-Type", "text/plain");
			Response.write("registered " + user);
		};
		p.register();

		var q = new Policy();
		q.url = [ "app.example.org/profile" ];
		q.onRequest = function() {
			var user = Request.param("user");
			var data = State.get("user:" + user);
			Response.setHeader("Content-Type", "text/plain");
			if (data == null) { Response.write("unknown"); } else { Response.write("profile " + JSON.parse(data).name); }
		};
		q.register();
	`)
	bus := state.NewBus()
	mutate := func(cfg *Config) { cfg.Bus = bus }
	a := newTestNode(t, "edge-a", origin, mutate)
	b := newTestNode(t, "edge-b", origin, mutate)

	// Registration handled at node A...
	resp, _, err := a.Handle(httpmsg.MustRequest("GET", "http://app.example.org/register?user=maria"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "registered maria" {
		t.Fatalf("register = %q", resp.Body)
	}
	// ...but the replica is attached lazily at B on its first touch of the
	// site, so warm B's replica and re-propagate from A.
	if _, _, err := b.Handle(httpmsg.MustRequest("GET", "http://app.example.org/profile?user=warmup")); err != nil {
		t.Fatal(err)
	}
	resp, _, err = a.Handle(httpmsg.MustRequest("GET", "http://app.example.org/register?user=amos"))
	if err != nil {
		t.Fatal(err)
	}
	// ...is visible at node B.
	resp, _, err = b.Handle(httpmsg.MustRequest("GET", "http://app.example.org/profile?user=amos"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "profile amos" {
		t.Errorf("profile at replica = %q", resp.Body)
	}
}

// TestAccessLoggingAndFlush: a site script names its log URL with
// Log.postTo; the node then keeps a line for each request it serves the site
// (and each Log.write), and FlushLogs posts them there. A URL on another host
// is a script error the script can catch, and a site whose script names no
// URL has nothing kept or posted.
func TestAccessLoggingAndFlush(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://logged.example.org/a", "a", 60)
	origin.addText("http://quiet.example.org/b", "b", 60)
	origin.addScript("http://logged.example.org/nakika.js", `
		Log.postTo("http://logged.example.org/log-sink");
		var refused = "no";
		try { Log.postTo("http://elsewhere.example.org/log-sink"); } catch (e) { refused = "yes"; }
		onResponse = function() { Log.write("elsewhere refused: " + refused); };
	`)
	n := newTestNode(t, "edge-1", origin, nil)
	for _, u := range []string{"http://logged.example.org/a", "http://quiet.example.org/b"} {
		if _, _, err := n.Handle(httpmsg.MustRequest("GET", u)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.FlushLogs(); err != nil {
		t.Fatal(err)
	}
	origin.mu.Lock()
	defer origin.mu.Unlock()
	posted := origin.posts["http://logged.example.org/log-sink"]
	if len(origin.posts) != 1 || len(posted) != 1 {
		t.Fatalf("posts = %v, want one batch to the logged site's URL", origin.posts)
	}
	if !strings.Contains(posted[0], "elsewhere refused: yes") || !strings.Contains(posted[0], "/a 200") {
		t.Errorf("posted log = %q", posted[0])
	}
}

func TestScriptCacheVocabularyThroughNode(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://img.example.org/photo.png", strings.Repeat("p", 500), 600)
	origin.addScript("http://img.example.org/nakika.js", `
		var p = new Policy();
		p.url = [ "img.example.org" ];
		p.onResponse = function() {
			var key = "thumb:" + Request.path;
			var cached = Cache.get(key);
			if (cached != null) {
				Response.setHeader("X-Thumb-Cache", "hit");
				Response.write(cached.body);
				return;
			}
			var body = new ByteArray(), c;
			while (c = Response.read()) { body.append(c); }
			var thumb = body.slice(0, 10);
			Cache.put(key, thumb, 300, "image/png");
			Response.setHeader("X-Thumb-Cache", "miss");
			Response.write(thumb);
		};
		p.register();
	`)
	n := newTestNode(t, "edge-1", origin, nil)
	r1, _, err := n.Handle(httpmsg.MustRequest("GET", "http://img.example.org/photo.png"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Header.Get("X-Thumb-Cache") != "miss" || len(r1.Body) != 10 {
		t.Errorf("first = %q %d bytes", r1.Header.Get("X-Thumb-Cache"), len(r1.Body))
	}
	r2, _, err := n.Handle(httpmsg.MustRequest("GET", "http://img.example.org/photo.png"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Header.Get("X-Thumb-Cache") != "hit" {
		t.Errorf("second = %q", r2.Header.Get("X-Thumb-Cache"))
	}
}

func TestResourceControlsThroughNode(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://busy.example.org/x", "x", 0)
	origin.addScript("http://busy.example.org/nakika.js", `
		var p = new Policy();
		p.onResponse = function() { var t = 0; for (var i = 0; i < 20000; i++) { t += i; } };
		p.register();
	`)
	n := newTestNode(t, "edge-1", origin, func(cfg *Config) {
		cfg.EnableResources = true
		cfg.Resources = resource.Config{Capacity: map[resource.Kind]float64{resource.CPU: 1000}}
		cfg.Cache.DefaultTTL = time.Nanosecond // force repeated pipeline work
	})
	// Generate enough load to congest the tiny CPU capacity, then run the
	// control loop once.
	for i := 0; i < 5; i++ {
		if _, _, err := n.Handle(httpmsg.MustRequest("GET", "http://busy.example.org/x")); err != nil {
			t.Fatal(err)
		}
	}
	n.Resources().ControlOnce()
	busy := false
	for i := 0; i < 100; i++ {
		_, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://busy.example.org/x"))
		if err != nil {
			t.Fatal(err)
		}
		if trace.RejectedBusy {
			busy = true
			break
		}
	}
	if !busy {
		t.Error("expected at least one server-busy rejection")
	}
	if n.Stats().Rejected == 0 {
		t.Error("rejected counter should be non-zero")
	}
	// Disabling resource controls restores unconditional admission.
	n.Resources().SetEnabled(false)
	for i := 0; i < 20; i++ {
		_, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://busy.example.org/x"))
		if err != nil {
			t.Fatal(err)
		}
		if trace.RejectedBusy {
			t.Fatal("disabled controls must not reject")
		}
	}
}

func TestServeHTTP(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://site.example.org/index.html", "<html>via proxy</html>", 60)
	n := newTestNode(t, "edge-http", origin, nil)

	// Absolute-form proxy request with the .nakika.net suffix appended to
	// the hostname, as the paper's URL rewriting produces.
	r := httptest.NewRequest("GET", "http://site.example.org.nakika.net/index.html", nil)
	r.RemoteAddr = "10.1.1.1:5555"
	w := httptest.NewRecorder()
	n.ServeHTTP(w, r)
	if w.Code != 200 || !strings.Contains(w.Body.String(), "via proxy") {
		t.Errorf("ServeHTTP = %d %q", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Na-Kika-Node") != "edge-http" {
		t.Error("node header missing")
	}
}

func TestIsLocalClient(t *testing.T) {
	n := newTestNode(t, "edge-1", newMemOrigin(), nil)
	cases := map[string]bool{
		"127.0.0.1":   true,
		"10.200.3.4":  true,
		"192.168.9.9": true,
		"8.8.8.8":     false,
		"not-an-ip":   false,
	}
	for ip, want := range cases {
		if got := n.IsLocalClient(ip); got != want {
			t.Errorf("IsLocalClient(%q) = %v, want %v", ip, got, want)
		}
	}
}

func TestConcurrentNodeTraffic(t *testing.T) {
	origin := newMemOrigin()
	for i := 0; i < 10; i++ {
		origin.addText(fmt.Sprintf("http://load.example.org/page-%d.html", i), fmt.Sprintf("<html>%d</html>", i), 300)
	}
	origin.addScript("http://load.example.org/nakika.js", `
		var p = new Policy();
		p.onResponse = function() { Response.setHeader("X-Touched", "1"); };
		p.register();
	`)
	n := newTestNode(t, "edge-1", origin, nil)
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				url := fmt.Sprintf("http://load.example.org/page-%d.html", (g+i)%10)
				resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
				if err != nil || resp.Status != 200 {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Errorf("%d failed requests under concurrency", failures.Load())
	}
	if n.Stats().Requests != 300 {
		t.Errorf("requests = %d", n.Stats().Requests)
	}
}

func TestStatePartitioningAcrossSites(t *testing.T) {
	n := newTestNode(t, "edge-1", newMemOrigin(), nil)
	if err := n.StatePut("site-a.org", "k", "va"); err != nil {
		t.Fatal(err)
	}
	if err := n.StatePut("site-b.org", "k", "vb"); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.StateGet("site-a.org", "k"); v != "va" {
		t.Errorf("site-a k = %q", v)
	}
	if v, _ := n.StateGet("site-b.org", "k"); v != "vb" {
		t.Errorf("site-b k = %q", v)
	}
	if err := n.StateDelete("site-a.org", "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.StateGet("site-a.org", "k"); ok {
		t.Error("delete failed")
	}
	if _, ok := n.StateGet("site-b.org", "k"); !ok {
		t.Error("deleting in one partition must not affect another")
	}
	if len(n.StateKeys("site-b.org")) != 1 {
		t.Error("StateKeys wrong")
	}
	if err := n.Propagate("site-a.org", "msg"); err == nil {
		t.Error("propagate without a bus should error")
	}
}

func TestNodeTimeAndUsage(t *testing.T) {
	n := newTestNode(t, "edge-1", newMemOrigin(), nil)
	if n.Now().After(time.Now().Add(time.Second)) {
		t.Error("Now should be close to wall clock")
	}
	if n.Usage("unknown.site", "cpu") != 0 {
		t.Error("unknown site usage should be zero")
	}
	if n.Usage("unknown.site", "bogus-resource") != 0 {
		t.Error("unknown resource usage should be zero")
	}
	if n.NodeName() != "edge-1" {
		t.Error("identity accessors wrong")
	}
}
