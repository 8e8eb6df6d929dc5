package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/deploy"
	"nakika/internal/httpmsg"
	"nakika/internal/lease"
	"nakika/internal/overlay"
	"nakika/internal/resource"
	"nakika/internal/store"
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

// restart ends n as its process dies and builds the next incarnation from
// the same Config, as the cluster harness's Crash and Restart do. A node
// with a data directory must run on a view of disk (disk.View()): the view
// is revoked, so whatever the dead incarnation still runs reaches no file,
// and the next one opens disk through a fresh view. Without a data
// directory (disk nil) the node comes back empty-handed.
func restart(t *testing.T, n *Node, disk *store.MemFS) *Node {
	t.Helper()
	cfg := n.cfg
	if disk != nil {
		view, ok := cfg.DataFS.(*store.MemView)
		if !ok {
			t.Fatalf("restart: %s's data directory is not a view of a MemFS", cfg.Name)
		}
		view.Revoke()
		cfg.DataFS = disk.View()
	}
	if cfg.Ring != nil {
		cfg.Ring.Leave(cfg.Name) // Join would hand back the dead overlay node
	}
	next, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return next
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
		if resp.Stamp.Get("X-Na-Kika-Node") != "edge-1" {
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
	if len(trace.Stages) != 1 { // the site script: the node has no walls
		t.Errorf("stages = %d", len(trace.Stages))
	}
}

// TestNoWallsNoWallFetches: a node configured without walls runs the site
// script alone and fetches no wall script. A node used to default to two
// walls at nakika.net, which do not resolve, and asked for both on every
// request before serving it without them.
func TestNoWallsNoWallFetches(t *testing.T) {
	wallFetches := 0
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case strings.HasSuffix(req.Path(), "wall.js"):
			wallFetches++
			return nil, errors.New("dial tcp: lookup " + req.Host() + ": no such host")
		case req.Path() == "/nakika.js":
			return httpmsg.NewTextResponse(404, "not found"), nil
		}
		resp := httpmsg.NewHTMLResponse(200, "<p>page</p>")
		resp.SetMaxAge(600)
		return resp, nil
	})
	n, err := NewNode(Config{Name: "no-walls", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		resp, trace, err := n.Handle(httpmsg.MustRequest("GET", "http://site.example.org/page"))
		if err != nil || resp.Status != 200 {
			t.Fatalf("request %d: %v, %v", i, resp, err)
		}
		if len(trace.Stages) != 1 {
			t.Fatalf("request %d ran %d stages, want the site script alone", i, len(trace.Stages))
		}
	}
	if wallFetches != 0 {
		t.Errorf("100 requests fetched %d wall scripts, want none", wallFetches)
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
	n := newTestNode(t, "edge-1", origin, func(cfg *Config) { cfg.ClientWallURL = "http://nakika.net/clientwall.js" })

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
	mutate := func(cfg *Config) { cfg.Ring = ring }
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
	ring := overlay.NewRing()
	mutate := func(cfg *Config) { cfg.Ring = ring }
	a := newTestNode(t, "edge-a", origin, mutate)
	b := newTestNode(t, "edge-b", origin, mutate)

	// Users registered at node A before B has touched the site...
	for _, user := range []string{"maria", "amos", "li", "kofi"} {
		resp, _, err := a.Handle(httpmsg.MustRequest("GET", "http://app.example.org/register?user="+user))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "registered "+user {
			t.Fatalf("register = %q", resp.Body)
		}
	}
	// ...read back at node B, whichever of the two owns each key.
	for _, user := range []string{"maria", "amos", "li", "kofi"} {
		resp, _, err := b.Handle(httpmsg.MustRequest("GET", "http://app.example.org/profile?user="+user))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "profile "+user {
			t.Errorf("profile of %s at B = %q", user, resp.Body)
		}
	}
}

// TestConcurrentPutsConvergeAcrossNodes: two in-process nodes sharing a Ring
// put one key at once, again and again. Both writes go to the key's owner,
// which orders them, so afterwards both nodes hold the same record and read
// the same value.
func TestConcurrentPutsConvergeAcrossNodes(t *testing.T) {
	ring := overlay.NewRing()
	mutate := func(cfg *Config) { cfg.Ring = ring }
	nodes := []*Node{newTestNode(t, "edge-a", newMemOrigin(), mutate), newTestNode(t, "edge-b", newMemOrigin(), mutate)}
	const site = "app.example.org"
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("counter-%d", round%4)
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := n.StatePut(site, key, fmt.Sprintf("%s-%d", n.Name(), round)); err != nil {
					t.Errorf("put at node %d: %v", i, err)
				}
			}()
		}
		wg.Wait()
		verA, valA, _, okA := nodes[0].LocalStateRecord(site, key)
		verB, valB, _, okB := nodes[1].LocalStateRecord(site, key)
		if !okA || !okB || verA != verB || valA != valB {
			t.Fatalf("round %d: A holds (%d, %q, %v), B holds (%d, %q, %v)", round, verA, valA, okA, verB, valB, okB)
		}
		got, _ := nodes[0].StateGet(site, key)
		if other, _ := nodes[1].StateGet(site, key); got != other || got != valA {
			t.Fatalf("round %d: A reads %q, B reads %q, stored %q", round, got, other, valA)
		}
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

// TestScriptCacheIsPartitionedBySite: a site's script neither reads nor
// overwrites the Cache entries another site's script put under the same key,
// in either direction.
func TestScriptCacheIsPartitionedBySite(t *testing.T) {
	origin := newMemOrigin()
	sites := []string{"a.example.org", "b.example.org"}
	for _, site := range sites {
		origin.addScript("http://"+site+"/nakika.js", `
			var p = new Policy();
			p.onResponse = function() {
				while (Response.read()) {}
				if (Request.path.indexOf("/put/") == 0) {
					Cache.put("shared", Request.path.substring(5), 300);
					Response.write("stored");
					return;
				}
				var cached = Cache.get("shared");
				Response.write(cached == null ? "none" : cached.body);
			};
			p.register();
		`)
	}
	n := newTestNode(t, "edge-1", origin, nil)
	step := 0
	do := func(site, path string) string {
		step++
		url := fmt.Sprintf("http://%s%s?step=%d", site, path, step)
		origin.addText(url, "origin page", 0)
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Materialize(); err != nil {
			t.Fatal(err)
		}
		return string(resp.Body)
	}
	for _, roles := range [][2]string{{sites[0], sites[1]}, {sites[1], sites[0]}} {
		first, second := roles[0], roles[1]
		do(first, "/put/secret-of-"+first)
		if got := do(second, "/get"); got == "secret-of-"+first {
			t.Errorf("%s read %s's Cache entry", second, first)
		}
		do(second, "/put/secret-of-"+second)
		if got := do(first, "/get"); got != "secret-of-"+first {
			t.Errorf("%s's Cache entry reads %q after %s put its own, want its own", first, got, second)
		}
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
}

// stateKeysScript answers /keys with the site's State.keys() as JSON. On
// /job it first takes the "job" lease and writes under it, so the node
// holds a lease record for the site beside the script's key.
const stateKeysScript = `
	var p = new Policy();
	p.url = [ "keys.example.org/" ];
	p.onRequest = function() {
		if (Request.path == "/job") {
			var token = Lease.acquire("job");
			Lease.put("a", "1", "job", token);
		}
		Response.setHeader("Content-Type", "text/plain");
		Response.write(JSON.stringify(State.keys()));
	};
	p.register();
`

// TestSingleNodeKeysHideInternalRecords: a node without peers keeps its
// lease and deployment records beside a site's own keys, and State.keys()
// lists the site's keys alone, before the site is deployed and after.
func TestSingleNodeKeysHideInternalRecords(t *testing.T) {
	origin := newMemOrigin()
	origin.addScript("http://keys.example.org/nakika.js", stateKeysScript)
	n := newTestNode(t, "edge-1", origin, nil)
	get := func(path string) string {
		t.Helper()
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://keys.example.org"+path))
		if err != nil {
			t.Fatal(err)
		}
		return string(resp.Body)
	}
	if got := get("/job"); got != `["a"]` {
		t.Errorf("State.keys() after a lease = %s, want [\"a\"]", got)
	}
	if _, err := n.Deploy("keys.example.org", stateKeysScript, "same script, deployed"); err != nil {
		t.Fatal(err)
	}
	if got := get("/keys"); got != `["a"]` {
		t.Errorf("State.keys() after a deploy = %s, want [\"a\"]", got)
	}
	if n.AppliedGeneration("keys.example.org") != 1 {
		t.Errorf("the deploy did not apply")
	}
}

// reservedScript tries every script door to the site's hard state on the
// reserved key the request's path names, /lease or /deploy, and answers
// what each did: "miss" or the value read, "ok" or the error thrown.
const reservedScript = `
	var keys = { "/lease": "\x00nk:lease:job", "/deploy": "\x00nk:deploy" };
	var p = new Policy();
	p.url = [ "reserved.example.org/" ];
	p.onRequest = function() {
		var key = keys[Request.path];
		var v = State.get(key);
		var out = [ v === null ? "miss" : v ];
		try { State.put(key, "x"); out.push("ok"); } catch (e) { out.push("" + e); }
		try { State.remove(key); out.push("ok"); } catch (e) { out.push("" + e); }
		try { Lease.put(key, "x", "job", 1); out.push("ok"); } catch (e) { out.push("" + e); }
		Response.setHeader("Content-Type", "text/plain");
		Response.write(out.join("|"));
	};
	p.register();
`

// TestReservedNamespaceRefusedAtEveryDoor: a site's lease and deploy
// records live in its own hard-state partition under "\x00nk:" keys, and
// no door to that partition reaches them. Through the site's deployed
// script State.get misses and State.put, State.remove and Lease.put throw;
// through the node StateGet misses and StatePut, StateDelete and
// FencedStatePut return errReserved. The site's deploy record, its applied
// generation and its lease record are unchanged afterwards.
func TestReservedNamespaceRefusedAtEveryDoor(t *testing.T) {
	const site = "reserved.example.org"
	n := newTestNode(t, "edge-1", newMemOrigin(), nil)
	if _, err := n.Deploy(site, reservedScript, "tries its own records"); err != nil {
		t.Fatal(err)
	}
	token, ok := n.LeaseAcquire(site, "job", time.Hour)
	if !ok {
		t.Fatal("the job lease was not granted")
	}
	record := func(key string) string {
		ver, value, deleted, ok := n.LocalStateRecord(site, key)
		return fmt.Sprintf("v%d %q deleted=%v ok=%v", ver, value, deleted, ok)
	}
	keys := []struct{ path, key string }{
		{"/lease", lease.Key("job")},
		{"/deploy", deploy.StateKey},
	}
	before := map[string]string{}
	for _, k := range keys {
		if before[k.key] = record(k.key); !strings.Contains(before[k.key], "ok=true") {
			t.Fatalf("%q holds no record: %s", k.key, before[k.key])
		}
	}
	refused := func(door string, err error) {
		t.Helper()
		if !errors.Is(err, errReserved) {
			t.Errorf("%s: %v, want %v", door, err, errReserved)
		}
	}
	for _, k := range keys {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://"+site+k.path))
		if err != nil {
			t.Fatal(err)
		}
		doors := strings.Split(string(resp.Body), "|")
		if len(doors) != 4 || doors[0] != "miss" {
			t.Fatalf("%s: the script read %q, want a miss and three refusals", k.path, resp.Body)
		}
		for i, door := range []string{"State.put", "State.remove", "Lease.put"} {
			if want := door + ": " + errReserved.Error(); !strings.Contains(doors[i+1], want) {
				t.Errorf("%s: %s gave %q, want it to throw %q", k.path, door, doors[i+1], want)
			}
		}
		if _, ok := n.StateGet(site, k.key); ok {
			t.Errorf("Node.StateGet(%q) read the record", k.key)
		}
		refused("Node.StatePut("+k.path+")", n.StatePut(site, k.key, "x"))
		refused("Node.StateDelete("+k.path+")", n.StateDelete(site, k.key))
		refused("Node.FencedStatePut("+k.path+")", n.FencedStatePut(site, k.key, "x", "job", token))
	}
	for _, k := range keys {
		if after := record(k.key); after != before[k.key] {
			t.Errorf("%q changed: %s, was %s", k.key, after, before[k.key])
		}
	}
	if gen := n.AppliedGeneration(site); gen != 1 {
		t.Errorf("AppliedGeneration = %d, want 1", gen)
	}
}

// parentSingleNodeWAL is state/wal-00000001.log as the previous release's
// single node (no ring, a data directory) left it: raw puts of four keys of
// shop.example.org, a delete record for one of them, the "job" lease's
// versioned record, and a fenced put written under that lease as a raw
// value.
const parentSingleNodeWAL = "0000002ef8f4a57d501073686f702e6578616d706c652e6f72670a757365723a6d61726961107b226e616d65223a226d61726961227d0000002cfff9c21d501073686f702e6578616d706c652e6f726709757365723a616d6f730f7b226e616d65223a22616d6f73227d00000024a0be8698501073686f702e6578616d706c652e6f726709636172743a616d6f730733206974656d730000001c6bae8fa4501073686f702e6578616d706c652e6f726704676f6e6504736f6f6e000000179a3a56c1441073686f702e6578616d706c652e6f726704676f6e650000004490c1d945501073686f702e6578616d706c652e6f72670d006e6b3a6c656173653a6a6f6223006e6b7631203120656467652d3120500006656467652d3101f4f6b083ca8cf2df31000000003841d99ab9471073686f702e6578616d706c652e6f7267086a6f623a6c617374067374657020370d006e6b3a6c656173653a6a6f6206656467652d3101"

// TestSingleNodeParentStateDirectory: the previous release's single-node
// hard state opens. Its raw values read as version 0, through State.get and
// State.keys, with the lease record hidden as before; a later put and
// remove supersede them, and what they wrote is what the next open reads.
func TestSingleNodeParentStateDirectory(t *testing.T) {
	raw, err := hex.DecodeString(parentSingleNodeWAL)
	if err != nil {
		t.Fatal(err)
	}
	fs := store.NewMemFS()
	f, err := fs.Create("state/wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(raw)
	f.Close()
	open := func() *Node { return newTestNode(t, "edge-1", newMemOrigin(), func(cfg *Config) { cfg.DataFS = fs }) }
	const site = "shop.example.org"
	check := func(n *Node, want map[string]string) {
		t.Helper()
		var keys []string
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := n.StateKeys(site); strings.Join(got, ",") != strings.Join(keys, ",") {
			t.Errorf("State.keys = %q, want %q", got, keys)
		}
		for k, v := range want {
			if got, ok := n.StateGet(site, k); !ok || got != v {
				t.Errorf("State.get(%q) = (%q, %v), want %q", k, got, ok, v)
			}
		}
	}
	n := open()
	if st := n.StoreStats(); st.Replayed != 7 {
		t.Errorf("replayed %d records, want the parent's 7", st.Replayed)
	}
	check(n, map[string]string{
		"user:maria": `{"name":"maria"}`,
		"user:amos":  `{"name":"amos"}`,
		"cart:amos":  "3 items",
		"job:last":   "step 7",
	})
	if ver, _, _, ok := n.LocalStateRecord(site, "user:maria"); !ok || ver != 0 {
		t.Errorf("a parent's raw value reads as version %d, want 0", ver)
	}
	if err := n.StatePut(site, "user:maria", `{"name":"maria","plan":"pro"}`); err != nil {
		t.Fatal(err)
	}
	if err := n.StateDelete(site, "cart:amos"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"user:maria": `{"name":"maria","plan":"pro"}`,
		"user:amos":  `{"name":"amos"}`,
		"job:last":   "step 7",
	}
	check(n, want)
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
	n = open()
	check(n, want)
	if _, ok := n.StateGet(site, "gone"); ok {
		t.Error("the key the parent deleted reads back")
	}
}

// TestStatePropagateThrowsOnEveryNode: State.propagate has no messaging
// service behind it on any node. A script that calls it catches the same
// error on a node without peers and on one sharing a Ring, and no node's
// store changes, whatever the message says.
func TestStatePropagateThrowsOnEveryNode(t *testing.T) {
	origin := newMemOrigin()
	origin.addScript("http://app.example.org/nakika.js", `
		var p = new Policy();
		p.url = [ "app.example.org/propagate" ];
		p.onRequest = function() {
			var caught = "none";
			try { State.propagate("put 1 5 xhello"); } catch (e) { caught = "" + e; }
			Response.setHeader("Content-Type", "text/plain");
			Response.write(caught);
		};
		p.register();
	`)
	ring := overlay.NewRing()
	single := newTestNode(t, "edge-solo", origin, nil)
	a := newTestNode(t, "edge-a", origin, func(cfg *Config) { cfg.Ring = ring })
	b := newTestNode(t, "edge-b", origin, func(cfg *Config) { cfg.Ring = ring })
	for _, n := range []*Node{single, a} {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://app.example.org/propagate"))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(resp.Body); !strings.Contains(got, "State.propagate: no messaging service configured") {
			t.Errorf("%s: State.propagate caught %q", n.Name(), got)
		}
	}
	for _, n := range []*Node{single, a, b} {
		if _, _, _, ok := n.LocalStateRecord("app.example.org", "x"); ok {
			t.Errorf("%s stored the propagated message", n.Name())
		}
		if keys := n.StateKeys("app.example.org"); len(keys) != 0 {
			t.Errorf("%s lists keys %v", n.Name(), keys)
		}
	}
}

// TestNodeTimeAndUsage reads the node's host as System.time, System.usage
// and System.nodeName do: usage by every resource.Kind's name reads the
// site's charge, and an unknown site or name reads 0.
func TestNodeTimeAndUsage(t *testing.T) {
	capacity := map[resource.Kind]float64{}
	for _, k := range resource.Kinds {
		capacity[k] = 1000
	}
	n := newTestNode(t, "edge-1", newMemOrigin(), func(cfg *Config) {
		cfg.Resources.Capacity, cfg.EnableResources = capacity, true
	})
	h := nodeHost{n}
	if h.Now().After(time.Now().Add(time.Second)) {
		t.Error("Now should be close to wall clock")
	}
	const site = "charged.example.org"
	for _, k := range resource.Kinds {
		n.res.Charge(site, k, capacity[k]) // congested, so renewable usage folds in too
	}
	n.res.ControlOnce()
	for _, k := range resource.Kinds {
		if got := h.Usage(site, k.String()); got <= 0 {
			t.Errorf("Usage(%q, %q) = %v after a charge, want above 0", site, k, got)
		}
	}
	if h.Usage("unknown.site", "cpu") != 0 {
		t.Error("unknown site usage should be zero")
	}
	if h.Usage(site, "bogus-resource") != 0 {
		t.Error("unknown resource usage should be zero")
	}
	if h.NodeName() != "edge-1" {
		t.Error("identity accessors wrong")
	}
}
