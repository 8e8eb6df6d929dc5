package core

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"nakika/internal/cache"
	"nakika/internal/httpmsg"
	"nakika/internal/resource"
)

// handleGet sends one GET through n and returns the materialized response.
func handleGet(t *testing.T, n *Node, url string) *httpmsg.Response {
	t.Helper()
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Materialize(); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestScheduledStageRunsAsRequestSite: a site that schedules another site's
// script as a stage runs it as itself. Its compile of that script is its
// own, so when the other site's own request runs the script, the script's
// State reaches the other site's partition, not the scheduling site's.
func TestScheduledStageRunsAsRequestSite(t *testing.T) {
	const evil, victim = "evil.example.org", "victim.example.org"
	origin := newMemOrigin()
	origin.addScript("http://"+evil+"/nakika.js", `nextStages = [ "http://`+victim+`/nakika.js" ];`)
	origin.addScript("http://"+victim+"/nakika.js", `
		var p = new Policy();
		p.url = [ "`+victim+`" ];
		p.onRequest = function() { State.put("secret", "victim-data"); };
		p.register();
	`)
	origin.addText("http://"+evil+"/page", "evil page", 60)
	origin.addText("http://"+victim+"/page", "victim page", 60)
	n := newTestNode(t, "edge-1", origin, nil)

	handleGet(t, n, "http://"+evil+"/page")
	handleGet(t, n, "http://"+victim+"/page")

	if v, ok := n.StateGet(victim, "secret"); !ok || v != "victim-data" {
		t.Errorf("victim's partition holds secret = %q (%v), want \"victim-data\"", v, ok)
	}
	if v, ok := n.StateGet(evil, "secret"); ok {
		t.Errorf("evil's partition holds the victim's secret %q", v)
	}
}

// TestWallChargedToTheSiteItServes: a client wall compiles once for each
// site it serves and charges each site's requests to that site. The wall
// counts its own compiles: its registration code, run once per compile,
// bumps a counter in the partition of the site it was compiled for.
func TestWallChargedToTheSiteItServes(t *testing.T) {
	const wall, a, b = "http://nakika.net/clientwall.js", "a.example.org", "b.example.org"
	origin := newMemOrigin()
	origin.addScript(wall, `
		State.put("wall-compiles", String(Number(State.get("wall-compiles")) + 1));
		onRequest = function() { var t = 0; for (var i = 0; i < 5000; i++) { t += i; } };
	`)
	origin.addText("http://"+a+"/x", "a", 60)
	origin.addText("http://"+b+"/x", "b", 60)
	n := newTestNode(t, "edge-1", origin, func(cfg *Config) {
		cfg.ClientWallURL = wall
		cfg.EnableResources = true
		cfg.Resources = resource.Config{Capacity: map[resource.Kind]float64{resource.CPU: 1000}}
	})
	compiles := func() int {
		total := 0
		for _, site := range []string{a, b} {
			v, _ := n.StateGet(site, "wall-compiles")
			c, _ := strconv.Atoi(v)
			total += c
		}
		return total
	}

	handleGet(t, n, "http://"+a+"/x")
	handleGet(t, n, "http://"+b+"/x")
	if got := compiles(); got != 2 {
		t.Errorf("two sites behind one wall: %d wall compiles, want 2", got)
	}
	for i := 0; i < 19; i++ {
		handleGet(t, n, "http://"+b+"/x")
	}
	if got := compiles(); got != 2 {
		t.Errorf("19 more requests: %d wall compiles, want still 2", got)
	}

	n.Resources().ControlOnce()
	ua, ub := n.Resources().Usage(a, resource.CPU), n.Resources().Usage(b, resource.CPU)
	t.Logf("cpu usage: %s %.2f, %s %.2f", a, ua, b, ub)
	if ua <= 0 || math.Abs(ub/ua-20) > 0.5 {
		t.Errorf("cpu usage %s %.2f, %s %.2f; want %s charged its 20 requests, 20 times %s's one", a, ua, b, ub, b, a)
	}
}

// TestRecoveredNodeRunsRepublishedScript: a crash loses every compiled
// stage, as a dead process does. A site that republishes its nakika.js,
// which the running node would not fetch again, is served by the new script
// on the first request after a restart.
func TestRecoveredNodeRunsRepublishedScript(t *testing.T) {
	const site = "republish.example.org"
	script := func(version string) string {
		return `onResponse = function() { Response.setHeader("X-Script", "` + version + `"); };`
	}
	origin := newMemOrigin()
	origin.addScript("http://"+site+"/nakika.js", script("v1"))
	origin.addText("http://"+site+"/page", "page", 60)
	n := newTestNode(t, "edge-1", origin, nil)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v1" {
		t.Fatalf("before the crash the page ran script %q, want v1", got)
	}

	origin.mu.Lock()
	origin.addScript("http://"+site+"/nakika.js", script("v2"))
	origin.mu.Unlock()
	n = restart(t, n, nil)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v2" {
		t.Errorf("the first request after the restart ran script %q, want the republished v2", got)
	}
}

// TestDeployMidRequestKeepsPinnedGeneration: a request parked in its origin
// fetch when a deploy lands runs its onResponse on the generation it
// started with, and says so in X-Na-Kika-Gen; the next request runs the
// new generation.
func TestDeployMidRequestKeepsPinnedGeneration(t *testing.T) {
	const site = "pin.example.org"
	entered, release := make(chan struct{}), make(chan struct{})
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		if req.Path() == "/slow" {
			entered <- struct{}{}
			<-release
		}
		return httpmsg.NewHTMLResponse(200, "page"), nil
	})
	n, err := NewNode(Config{Name: "edge-1", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	script := func(version string) string {
		return `onResponse = function() { Response.setHeader("X-Script", "` + version + `"); };`
	}
	if _, err := n.Deploy(site, script("v1"), ""); err != nil {
		t.Fatal(err)
	}

	type result struct {
		resp *httpmsg.Response
		err  error
	}
	parked := make(chan result, 1)
	go func() {
		resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://"+site+"/slow"))
		parked <- result{resp, err}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the origin")
	}
	if gen, err := n.Deploy(site, script("v2"), ""); err != nil || gen != 2 {
		t.Fatalf("second deploy: generation %d, %v", gen, err)
	}
	if got := n.AppliedGeneration(site); got != 2 {
		t.Fatalf("applied generation %d after the second deploy, want 2", got)
	}
	close(release)

	check := func(what string, resp *httpmsg.Response, script, gen string) {
		t.Helper()
		if got := resp.Header.Get("X-Script"); got != script {
			t.Errorf("%s ran script %q, want %s", what, got, script)
		}
		if got := resp.Stamp.Get("X-Na-Kika-Gen"); got != gen {
			t.Errorf("%s says X-Na-Kika-Gen %q, want %s", what, got, gen)
		}
	}
	r := <-parked
	if r.err != nil {
		t.Fatal(r.err)
	}
	check("the parked request", r.resp, "v1", "1")
	resp, _, err := n.Handle(httpmsg.MustRequest("GET", "http://"+site+"/next"))
	if err != nil {
		t.Fatal(err)
	}
	check("the next request", resp, "v2", "2")
}

// scriptOrigin wraps a memOrigin as an upstream whose answers a test can
// replace per URL (fail), and that counts the fetches of each URL.
type scriptOrigin struct {
	*memOrigin
	failMu sync.Mutex
	fail   map[string]func() (*httpmsg.Response, error)
}

func newScriptOrigin() *scriptOrigin {
	return &scriptOrigin{memOrigin: newMemOrigin(), fail: make(map[string]func() (*httpmsg.Response, error))}
}

// failNext makes the next n fetches of url end in err (a nil err: a 503).
func (o *scriptOrigin) failNext(url string, n int, err error) {
	o.failMu.Lock()
	defer o.failMu.Unlock()
	o.fail[url] = func() (*httpmsg.Response, error) {
		if n--; n == 0 {
			delete(o.fail, url)
		}
		if err != nil {
			return nil, err
		}
		return httpmsg.NewTextResponse(503, "origin failing"), nil
	}
}

func (o *scriptOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	o.failMu.Lock()
	f := o.fail[req.URL.String()]
	o.failMu.Unlock()
	if f != nil {
		o.mu.Lock()
		o.hits[req.URL.String()]++
		o.mu.Unlock()
		return f()
	}
	return o.memOrigin.Do(req)
}

// set replaces url's resource at the origin.
func (o *scriptOrigin) set(url string, add func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	add()
}

// stageNode is a node on a fake clock whose upstream is origin.
func stageNode(t *testing.T, origin *scriptOrigin, mutate func(*Config)) (*Node, *testClock) {
	t.Helper()
	clock := newTestClock()
	n := newTestNodeUpstream(t, "edge-1", origin, func(cfg *Config) {
		cfg.Clock = clock.Now
		cfg.LocalNetworks = []string{"10.0.0.0/8"}
		if mutate != nil {
			mutate(cfg)
		}
	})
	return n, clock
}

// handleFrom sends one GET for url from client ip through n.
func handleFrom(t *testing.T, n *Node, url, ip string) *httpmsg.Response {
	t.Helper()
	req := httpmsg.MustRequest("GET", url)
	req.ClientIP = ip
	resp, _, err := n.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Materialize(); err != nil {
		t.Fatal(err)
	}
	return resp
}

// adminWall is TestAdminWallThroughNode's client wall: a non-local client
// may not read the reprints.
const (
	adminWallURL = "http://nakika.net/clientwall.js"
	adminWall    = `
		var p = new Policy();
		p.url = [ "content.nejm.org/cgi/reprint" ];
		p.onRequest = function() {
			if (! System.isLocal(Request.clientIP)) { Request.terminate(401); }
		};
		p.register();
	`
	reprintURL = "http://content.nejm.org/cgi/reprint/1.pdf"
	outsideIP  = "203.0.113.4"
)

// TestWallFetchFailureFailsClosed: the client wall's first fetch is reset.
// The client the wall refuses never gets the origin's body: while the
// failure's back-off lasts its requests are answered 503 with Retry-After,
// with no second fetch of the wall, and once it ends the wall is fetched
// again and answers 401.
func TestWallFetchFailureFailsClosed(t *testing.T) {
	origin := newScriptOrigin()
	origin.addText(reprintURL, "PDF", 60)
	origin.addScript(adminWallURL, adminWall)
	origin.failNext(adminWallURL, 1, errors.New("read tcp: connection reset by peer"))
	n, clock := stageNode(t, origin, func(cfg *Config) { cfg.ClientWallURL = adminWallURL })

	for i := 0; i < 3; i++ {
		resp := handleFrom(t, n, reprintURL, outsideIP)
		if resp.Status != 503 || resp.Header.Get("Retry-After") != "1" || string(resp.Body) == "PDF" {
			t.Fatalf("request %d within the back-off: %d %q, Retry-After %q; want 503 and Retry-After 1", i, resp.Status, resp.Body, resp.Header.Get("Retry-After"))
		}
		clock.Advance(300 * time.Millisecond)
	}
	if got := origin.hitCount(adminWallURL); got != 1 {
		t.Errorf("the wall was fetched %d times within the back-off, want 1", got)
	}
	clock.Advance(100 * time.Millisecond)
	if resp := handleFrom(t, n, reprintURL, outsideIP); resp.Status != 401 {
		t.Errorf("after the back-off the refused client got %d %q, want the wall's 401", resp.Status, resp.Body)
	}
	if resp := handleFrom(t, n, reprintURL, "10.3.2.1"); resp.Status != 200 {
		t.Errorf("the local client got %d, want 200", resp.Status)
	}
	if wall, site := n.executor.Refusals(); wall != 3 || site != 0 {
		t.Errorf("refusals: wall %d, site %d; want 3 and 0", wall, site)
	}
	if failed, compiled := n.loader.Loads("failed"), n.loader.Loads("compiled"); failed != 1 || compiled != 1 {
		t.Errorf("stage loads: %d failed, %d compiled; want 1 and 1", failed, compiled)
	}
}

// TestWallServesStaleWithinWindow: once the wall has loaded, a refetch that
// fails past its max-age keeps the wall serving, one fetch per back-off,
// until cache.StaleIfError past its expiry; then the node fails closed.
func TestWallServesStaleWithinWindow(t *testing.T) {
	origin := newScriptOrigin()
	origin.addText(reprintURL, "PDF", 60)
	origin.addScript(adminWallURL, adminWall)
	n, clock := stageNode(t, origin, func(cfg *Config) { cfg.ClientWallURL = adminWallURL })
	if resp := handleFrom(t, n, reprintURL, outsideIP); resp.Status != 401 {
		t.Fatalf("the refused client got %d, want 401", resp.Status)
	}
	origin.failNext(adminWallURL, 1<<30, nil)
	clock.Advance(300 * time.Second) // the wall's max-age
	for i := 0; i < 3; i++ {
		if resp := handleFrom(t, n, reprintURL, outsideIP); resp.Status != 401 {
			t.Fatalf("request %d past the wall's expiry: %d, want the stale wall's 401", i, resp.Status)
		}
	}
	if got := origin.hitCount(adminWallURL); got != 2 {
		t.Errorf("the wall was fetched %d times, want once, then once more past its expiry", got)
	}
	clock.Advance(cache.StaleIfError - time.Second)
	if resp := handleFrom(t, n, reprintURL, outsideIP); resp.Status != 401 {
		t.Errorf("at the end of the stale window: %d, want the stale wall's 401", resp.Status)
	}
	clock.Advance(time.Second)
	if resp := handleFrom(t, n, reprintURL, outsideIP); resp.Status != 503 {
		t.Errorf("past the stale window: %d %q, want 503", resp.Status, resp.Body)
	}
	if stale, failed := n.loader.Loads("stale"), n.loader.Loads("failed"); stale != 2 || failed != 1 {
		t.Errorf("stage loads: %d stale, %d failed; want 2 and 1", stale, failed)
	}
}

// TestRepublishedScriptRunsAfterMaxAge: a site script served with
// max-age=300 and replaced at the origin runs on the first request after
// its max-age, and not before.
func TestRepublishedScriptRunsAfterMaxAge(t *testing.T) {
	const site = "republish.example.org"
	script := func(version string) string {
		return `onResponse = function() { Response.setHeader("X-Script", "` + version + `"); };`
	}
	origin := newScriptOrigin()
	origin.addScript("http://"+site+"/nakika.js", script("v1"))
	origin.addText("http://"+site+"/page", "page", 1)
	n, clock := stageNode(t, origin, nil)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v1" {
		t.Fatalf("the page ran script %q, want v1", got)
	}
	origin.set("http://"+site+"/nakika.js", func() { origin.addScript("http://"+site+"/nakika.js", script("v2")) })
	clock.Advance(299 * time.Second)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v1" {
		t.Errorf("within the script's max-age the page ran %q, want v1", got)
	}
	clock.Advance(time.Second)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v2" {
		t.Errorf("the first request after the script's max-age ran %q, want the republished v2", got)
	}
	if got := origin.hitCount("http://" + site + "/nakika.js"); got != 2 {
		t.Errorf("the origin saw %d fetches of nakika.js, want 2", got)
	}
}

// TestPublishedScriptRunsAfterNegativeExpiry: a site whose nakika.js
// answered 404 (no freshness given: the cache's default TTL) runs a script
// it publishes once that answer expires.
func TestPublishedScriptRunsAfterNegativeExpiry(t *testing.T) {
	const site = "late.example.org"
	origin := newScriptOrigin()
	origin.addText("http://"+site+"/page", "page", 1)
	n, clock := stageNode(t, origin, nil)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "" {
		t.Fatalf("a site with no script ran %q", got)
	}
	origin.set("http://"+site+"/nakika.js", func() {
		origin.addScript("http://"+site+"/nakika.js", `onResponse = function() { Response.setHeader("X-Script", "published"); };`)
	})
	clock.Advance(59 * time.Second)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "" {
		t.Errorf("within the 404's freshness the page ran %q, want none", got)
	}
	clock.Advance(time.Second)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "published" {
		t.Errorf("after the 404 expired the page ran %q, want the published script", got)
	}
	if missing := n.loader.Loads("missing"); missing != 1 {
		t.Errorf("%d missing loads, want 1", missing)
	}
}

// TestUnchangedScriptCompilesNothing: a script fetched again past its
// max-age keeps its compiled stage (and with it the stage's context pool)
// when the origin answers 304 to the node's conditional request, and when
// it answers 200 with the same bytes. The script counts its own compiles in
// its site's State.
func TestUnchangedScriptCompilesNothing(t *testing.T) {
	const src = `
		State.put("compiles", String(Number(State.get("compiles")) + 1));
		onResponse = function() { Response.setHeader("X-Script", "v1"); };
	`
	for _, tc := range []struct {
		name   string
		etag   string
		status int
	}{
		{"304", `"v1"`, 304},
		{"same bytes", "", 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			site := "unchanged.example.org"
			url := "http://" + site + "/nakika.js"
			origin := newScriptOrigin()
			origin.addText("http://"+site+"/page", "page", 1)
			statuses := make(chan int, 8)
			upstream := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
				if req.URL.String() != url {
					return origin.Do(req)
				}
				resp := httpmsg.NewTextResponse(200, src)
				if tc.etag != "" {
					resp.Header.Set("Etag", tc.etag)
					if req.Header.Get("If-None-Match") == tc.etag {
						resp = httpmsg.NewResponse(304)
						resp.Header.Set("Etag", tc.etag)
					}
				}
				resp.SetMaxAge(300)
				statuses <- resp.Status
				return resp, nil
			})
			clock := newTestClock()
			n := newTestNodeUpstream(t, "edge-1", upstream, func(cfg *Config) { cfg.Clock = clock.Now })
			handleGet(t, n, "http://"+site+"/page")
			first, err := n.Loader().Load(url, site)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				clock.Advance(300 * time.Second)
				if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v1" {
					t.Fatalf("refetch %d: the page ran %q, want v1", i, got)
				}
			}
			close(statuses)
			var seen []int
			for s := range statuses {
				seen = append(seen, s)
			}
			if len(seen) != 4 || seen[3] != tc.status {
				t.Errorf("the origin answered %v, want a 200 and then 3 of %d", seen, tc.status)
			}
			if v, _ := n.StateGet(site, "compiles"); v != "1" {
				t.Errorf("the script compiled %s times, want once", v)
			}
			if st, _ := n.Loader().Load(url, site); st != first {
				t.Error("an unchanged script replaced the stage, and with it its context pool")
			}
			if got := n.loader.Loads("revalidated"); got != 3 {
				t.Errorf("%d revalidated loads, want 3", got)
			}
		})
	}
}

// TestDeadScriptURLFetchedOncePerBackoff: a site script whose fetch always
// fails costs one fetch per back-off, not one per request, and each of its
// requests is refused.
func TestDeadScriptURLFetchedOncePerBackoff(t *testing.T) {
	const site = "dead.example.org"
	url := "http://" + site + "/nakika.js"
	origin := newScriptOrigin()
	origin.addText("http://"+site+"/page", "page", 60)
	origin.failNext(url, 1<<30, errors.New("dial tcp: connection refused"))
	n, clock := stageNode(t, origin, nil)
	for second := 0; second < 3; second++ {
		for i := 0; i < 10; i++ {
			if resp := handleGet(t, n, "http://"+site+"/page"); resp.Status != 503 {
				t.Fatalf("second %d, request %d: %d %q, want 503", second, i, resp.Status, resp.Body)
			}
			clock.Advance(100 * time.Millisecond)
		}
	}
	if got := origin.hitCount(url); got != 3 {
		t.Errorf("30 requests over 3 s fetched the dead script %d times, want 3", got)
	}
	if wall, site := n.executor.Refusals(); wall != 0 || site != 30 {
		t.Errorf("refusals: wall %d, site %d; want 0 and 30", wall, site)
	}
}
