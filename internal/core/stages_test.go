package core

import (
	"errors"
	"math"
	"strconv"
	"strings"
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
	// The cache keeps an expired copy only for its validators (cache.Kept).
	origin.resources[adminWallURL].Header.Set("Etag", `"wall-v1"`)
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

// refusedPastExpiry loads a site script the origin serves with header,
// then fails every fetch of it with err (a nil err: a 503) from the
// script's expiry on, and checks that the site's next request is refused
// with a 503 instead of running the expired script.
func refusedPastExpiry(t *testing.T, header map[string]string, err error) {
	t.Helper()
	const site = "strict.example.org"
	url := "http://" + site + "/nakika.js"
	origin := newScriptOrigin()
	origin.addText("http://"+site+"/page", "page", 3600)
	origin.addScript(url, `onResponse = function() { Response.setHeader("X-Script", "ran"); };`)
	for k, v := range header {
		origin.resources[url].Header.Set(k, v)
	}
	n, clock := stageNode(t, origin, nil)
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "ran" {
		t.Fatalf("the fresh script did not run: X-Script %q", got)
	}
	origin.failNext(url, 1<<30, err)
	clock.Advance(300 * time.Second)
	resp := handleGet(t, n, "http://"+site+"/page")
	if resp.Status != 503 || resp.Header.Get("X-Script") != "" {
		t.Errorf("past the script's expiry with its origin failing: %d, X-Script %q; want 503 and no run", resp.Status, resp.Header.Get("X-Script"))
	}
	if stale, failed := n.loader.Loads("stale"), n.loader.Loads("failed"); stale != 0 || failed != 1 {
		t.Errorf("stage loads: %d stale, %d failed; want 0 and 1", stale, failed)
	}
	if _, refused := n.executor.Refusals(); refused != 1 {
		t.Errorf("%d site refusals, want 1", refused)
	}
}

// TestMustRevalidateScriptNeverRunsStale: a script whose answer says
// must-revalidate may not be used once it is stale without a successful
// revalidation (RFC 9111 §5.2.2.2), though it has a validator and names a
// stale-if-error window: when its origin answers 503, the site is refused.
func TestMustRevalidateScriptNeverRunsStale(t *testing.T) {
	refusedPastExpiry(t, map[string]string{"Cache-Control": "max-age=300, must-revalidate, stale-if-error=600", "Etag": `"s1"`}, nil)
}

// TestValidatorlessScriptFailsClosedPastExpiry: the cache keeps no expired
// copy without a validator (cache.Kept), so a script with neither an ETag
// nor a Last-Modified has no stale copy to run once it expires: when its
// origin cannot be reached, the site is refused.
func TestValidatorlessScriptFailsClosedPastExpiry(t *testing.T) {
	refusedPastExpiry(t, nil, errors.New("dial tcp: connection refused"))
}

// TestScriptlessSiteRidesOutAnOutage: a site with no nakika.js keeps its
// missing-script stage through an origin outage by the cache's one stale
// rule over the 404's header, though the 404 has no validator and so no
// kept copy: past the 404's 60 s default TTL the site's fresh cached page
// still serves, the script is fetched once per back-off, and only past
// cache.StaleIfError after the 404's expiry is the site refused.
func TestScriptlessSiteRidesOutAnOutage(t *testing.T) {
	const site = "plain.example.org"
	page, scriptURL := "http://"+site+"/page", "http://"+site+"/nakika.js"
	origin := newScriptOrigin()
	origin.addText(page, "page", 3600)
	n, clock := stageNode(t, origin, nil)
	if resp := handleGet(t, n, page); resp.Status != 200 || string(resp.Body) != "page" {
		t.Fatalf("the site's page: %d %q, want 200", resp.Status, resp.Body)
	}
	down := errors.New("dial tcp: connection refused")
	origin.failNext(scriptURL, 1<<30, down)
	origin.failNext(page, 1<<30, down)
	clock.Advance(61 * time.Second) // past the 404's default TTL
	for i := 0; i < 3; i++ {
		if resp := handleGet(t, n, page); resp.Status != 200 || string(resp.Body) != "page" {
			t.Fatalf("request %d past the 404's expiry: %d %q, want the cached page", i, resp.Status, resp.Body)
		}
	}
	if got := origin.hitCount(scriptURL); got != 2 {
		t.Errorf("nakika.js was fetched %d times, want once, then once more past its 404's expiry", got)
	}
	clock.Advance(cache.StaleIfError)
	if resp := handleGet(t, n, page); resp.Status != 503 {
		t.Errorf("past the stale window: %d %q, want 503", resp.Status, resp.Body)
	}
	if missing, stale, failed := n.loader.Loads("missing"), n.loader.Loads("stale"), n.loader.Loads("failed"); missing != 1 || stale != 1 || failed != 1 {
		t.Errorf("stage loads: %d missing, %d stale, %d failed; want 1, 1 and 1", missing, stale, failed)
	}
	if got := origin.hitCount(page); got != 1 {
		t.Errorf("the page was fetched %d times, want once", got)
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

// TestSharedWallExpiresWithItsCachedCopy: one max-age=300 wall serves two
// sites. Site a loads it at 0 s; site b loads it at 200 s from the node's
// cache, just as the origin republishes it. Both stages expire with the one
// cached copy, at 300 s, so past that both sites run the republished wall.
// A lifetime counted again from b's load would keep b on the old wall until
// 500 s.
func TestSharedWallExpiresWithItsCachedCopy(t *testing.T) {
	const wall, a, b = "http://nakika.net/clientwall.js", "http://a.example.org/x", "http://b.example.org/x"
	version := func(v string) string {
		return `onResponse = function() { Response.setHeader("X-Wall", "` + v + `"); };`
	}
	origin := newScriptOrigin()
	origin.addScript(wall, version("v1"))
	origin.addText(a, "a", 3600)
	origin.addText(b, "b", 3600)
	n, clock := stageNode(t, origin, func(cfg *Config) { cfg.ClientWallURL = wall })
	ran := func(url string) string { return handleGet(t, n, url).Header.Get("X-Wall") }

	if got := ran(a); got != "v1" {
		t.Fatalf("site a at 0 s ran wall %q, want v1", got)
	}
	clock.Advance(200 * time.Second)
	origin.set(wall, func() { origin.addScript(wall, version("v2")) })
	if got := ran(b); got != "v1" {
		t.Fatalf("site b at 200 s ran wall %q, want the cached v1", got)
	}
	clock.Advance(101 * time.Second)
	for _, url := range []string{a, b} {
		if got := ran(url); got != "v2" {
			t.Errorf("%s at 301 s ran wall %q, want the republished v2: the cached copy expired at 300 s", url, got)
		}
	}
	if got := origin.hitCount(wall); got != 2 {
		t.Errorf("the origin saw %d fetches of the wall, want 2", got)
	}
}

// TestCatchAllOriginServesWithoutScript: an origin that answers every path
// with a page answers the site's nakika.js with one too. That says the site
// has no script, as a 404 does: its requests are served, not refused, and
// the load counts as missing.
func TestCatchAllOriginServesWithoutScript(t *testing.T) {
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		r := httpmsg.NewHTMLResponse(200, "<html><body>app shell for "+req.Path()+"</body></html>")
		r.SetMaxAge(60)
		return r, nil
	})
	n := newTestNodeUpstream(t, "edge-1", origin, nil)
	for i := 0; i < 3; i++ {
		resp := handleGet(t, n, "http://spa.example.org/route/"+strconv.Itoa(i))
		if resp.Status != 200 || !strings.Contains(string(resp.Body), "app shell") {
			t.Fatalf("request %d: %d %q, want the origin's page", i, resp.Status, resp.Body)
		}
	}
	if missing, failed := n.loader.Loads("missing"), n.loader.Loads("failed"); missing != 1 || failed != 0 {
		t.Errorf("stage loads: %d missing, %d failed; want 1 and 0", missing, failed)
	}
	if wall, site := n.executor.Refusals(); wall != 0 || site != 0 {
		t.Errorf("refusals: wall %d, site %d; want none", wall, site)
	}
}

// TestSiteScriptMediaTypes: a site script is read by its reply's media
// type. An HTML one (text/html or application/xhtml+xml, with parameters, in
// any case) is no script, even when its bytes would compile; any other, and
// none, is compiled.
func TestSiteScriptMediaTypes(t *testing.T) {
	const src = `onResponse = function() { Response.setHeader("X-Script", "ran"); };`
	for _, tc := range []struct {
		contentType string
		runs        bool
	}{
		{"text/html; charset=utf-8", false},
		{"Application/XHTML+XML", false},
		{"application/javascript", true},
		{"text/plain; charset=utf-8", true},
		{"", true},
	} {
		const site = "typed.example.org"
		origin := newScriptOrigin()
		origin.addText("http://"+site+"/page", "page", 60)
		origin.addScript("http://"+site+"/nakika.js", src)
		if tc.contentType == "" {
			origin.resources["http://"+site+"/nakika.js"].Header.Del("Content-Type")
		} else {
			origin.resources["http://"+site+"/nakika.js"].Header.Set("Content-Type", tc.contentType)
		}
		n, _ := stageNode(t, origin, nil)
		resp := handleGet(t, n, "http://"+site+"/page")
		if ran := resp.Header.Get("X-Script") == "ran"; resp.Status != 200 || ran != tc.runs {
			t.Errorf("nakika.js as %q: %d, script ran %v; want 200 and %v", tc.contentType, resp.Status, ran, tc.runs)
		}
	}
}

// TestWallServedAsPageRefuses: a wall whose URL answers with an HTML page
// is not read as a missing wall, which would let every request through
// unchecked: it fails to compile, and the node refuses with a 503.
func TestWallServedAsPageRefuses(t *testing.T) {
	origin := newScriptOrigin()
	origin.addText(reprintURL, "PDF", 60)
	origin.addText(adminWallURL, "<html><body>not found</body></html>", 60)
	n, _ := stageNode(t, origin, func(cfg *Config) { cfg.ClientWallURL = adminWallURL })
	resp := handleFrom(t, n, reprintURL, outsideIP)
	if resp.Status != 503 || resp.Header.Get("Retry-After") != "1" || string(resp.Body) == "PDF" {
		t.Errorf("behind a wall served as a page: %d %q, want 503 with Retry-After 1", resp.Status, resp.Body)
	}
	if wall, _ := n.executor.Refusals(); wall != 1 {
		t.Errorf("%d wall refusals, want 1", wall)
	}
	if failed, missing := n.loader.Loads("failed"), n.loader.Loads("missing"); failed != 1 || missing != 0 {
		t.Errorf("stage loads: %d failed, %d missing; want the wall's 1 and 0", failed, missing)
	}
}
