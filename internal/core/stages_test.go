package core

import (
	"math"
	"strconv"
	"testing"
	"time"

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
// stage, as a dead process does. A site that republishes its nakika.js
// while the node is down is served by the new script on the first request
// after Recover.
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

	n.Crash()
	origin.mu.Lock()
	origin.addScript("http://"+site+"/nakika.js", script("v2"))
	origin.mu.Unlock()
	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := handleGet(t, n, "http://"+site+"/page").Header.Get("X-Script"); got != "v2" {
		t.Errorf("the first request after Recover ran script %q, want the republished v2", got)
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
