package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"nakika/internal/resource"
)

// newEdgeServer boots a node configured the way cmd/nakikad wires one
// (resource controls, CPU/memory capacities, local networks) and serves it
// over a real HTTP listener. The helper is the reusable entry point for
// end-to-end tests: everything between the TCP socket and the origin —
// ServeHTTP, the pipeline, the cache — runs for real.
func newEdgeServer(t *testing.T, origin Fetcher, mutate func(*Config)) (*Node, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Name:            "edge-e2e",
		Region:          "us-east",
		Upstream:        origin,
		LocalNetworks:   []string{"127.0.0.0/8", "10.0.0.0/8"},
		EnableResources: true,
		Resources: resource.Config{
			Capacity: map[resource.Kind]float64{
				resource.CPU:    50_000_000,
				resource.Memory: 256 << 20,
			},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)
	return n, srv
}

// get issues a real HTTP GET for rawURL through the edge server, using the
// proxy-style absolute-form request nakikad receives.
func get(t *testing.T, srv *httptest.Server, rawURL string) (*http.Response, string) {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("GET", srv.URL+u.RequestURI(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Absolute-form proxy request: the Host header carries the origin name
	// (with the .nakika.net redirection suffix clients append).
	req.Host = u.Host
	req.URL.Host = strings.TrimPrefix(srv.URL, "http://")
	req.URL.Scheme = "http"
	req.URL.Path = u.Path
	req.URL.RawQuery = u.RawQuery
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestEndToEndPipelineAndCache runs the full request path over real HTTP:
// a site script transforms the response at the edge, the result is cached,
// and the second request is served from the cache without a second origin
// fetch.
func TestEndToEndPipelineAndCache(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://shop.example.org/catalog.html", "<html><body>catalog</body></html>", 300)
	origin.addScript("http://shop.example.org/nakika.js", `
		var p = new Policy();
		p.url = [ "shop.example.org" ];
		p.onResponse = function() {
			var body = new ByteArray(), c;
			while (c = Response.read()) { body.append(c); }
			Response.setHeader("X-Edge-Script", "ran");
			Response.write(body.toString().replace("catalog", "edge catalog"));
		};
		p.register();
	`)
	node, srv := newEdgeServer(t, origin, nil)

	// The client appends .nakika.net for DNS redirection; the node must
	// strip it and recover the origin host.
	resp, body := get(t, srv, "http://shop.example.org.nakika.net/catalog.html")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "edge catalog") {
		t.Fatalf("script did not transform body: %q", body)
	}
	if resp.Header.Get("X-Edge-Script") != "ran" {
		t.Error("script-set header missing")
	}
	if resp.Header.Get("X-Na-Kika-Node") != "edge-e2e" {
		t.Error("node identity header missing")
	}

	// Second request: cache hit, no new origin access.
	before := origin.hitCount("http://shop.example.org/catalog.html")
	resp2, body2 := get(t, srv, "http://shop.example.org.nakika.net/catalog.html")
	if resp2.StatusCode != 200 || body2 != body {
		t.Fatalf("second response differs: %d %q", resp2.StatusCode, body2)
	}
	if after := origin.hitCount("http://shop.example.org/catalog.html"); after != before {
		t.Errorf("origin hits went %d -> %d; second request should be a cache hit", before, after)
	}
	st := node.Stats()
	if st.Requests != 2 || st.CacheHits == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEndToEndErrorPaths covers the non-happy paths over real HTTP: origin
// 404s, unparseable requests, and plain pass-through without the
// redirection suffix.
func TestEndToEndErrorPaths(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://plain.example.org/ok.html", "<html>ok</html>", 60)
	_, srv := newEdgeServer(t, origin, nil)

	resp, _ := get(t, srv, "http://plain.example.org/missing.html")
	if resp.StatusCode != 404 {
		t.Errorf("missing resource status = %d", resp.StatusCode)
	}
	resp, body := get(t, srv, "http://plain.example.org/ok.html")
	if resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Errorf("plain host = %d %q", resp.StatusCode, body)
	}
}

// TestEndToEndAdminWall checks that the administrative control scripts run
// on the real HTTP path: a client-wall script blocks non-local clients and
// stamps admitted responses. The httptest client connects from 127.0.0.1,
// which is always local, so the wall admits it — the stamped header proves
// the wall actually executed rather than being silently skipped.
func TestEndToEndAdminWall(t *testing.T) {
	origin := newMemOrigin()
	origin.addText("http://guarded.example.org/file.pdf", "PDF", 60)
	origin.addScript("http://nakika.net/clientwall.js", `
		var p = new Policy();
		p.url = [ "guarded.example.org" ];
		p.onRequest = function() {
			if (! System.isLocal(Request.clientIP)) { Request.terminate(401); }
		};
		p.onResponse = function() {
			Response.setHeader("X-Wall", "ran");
		};
		p.register();
	`)
	_, srv := newEdgeServer(t, origin, func(cfg *Config) { cfg.ClientWallURL = "http://nakika.net/clientwall.js" })
	resp, body := get(t, srv, "http://guarded.example.org.nakika.net/file.pdf")
	if resp.StatusCode != 200 || body != "PDF" {
		t.Errorf("local client through wall = %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Wall") != "ran" {
		t.Error("client wall did not execute (X-Wall header missing)")
	}
}
