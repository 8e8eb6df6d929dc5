package nakika

import (
	"strings"
	"testing"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: an in-process origin with a site
	// script, one edge node, one request.
	origin := FetcherFunc(func(req *Request) (*Response, error) {
		switch req.Path() {
		case "/nakika.js":
			r := NewTextResponse(200, `
				var p = new Policy();
				p.url = [ "quickstart.example.org" ];
				p.onResponse = function() {
					var b = new ByteArray(), c;
					while (c = Response.read()) { b.append(c); }
					Response.write(b.toString() + " — processed at the edge by " + System.nodeName);
				};
				p.register();
			`)
			r.SetMaxAge(300)
			return r, nil
		case "/hello":
			return NewHTMLResponse(200, "hello from the origin"), nil
		default:
			return NewTextResponse(404, "not found"), nil
		}
	})
	node, err := NewNode(Config{Name: "edge-1", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := node.Handle(MustRequest("GET", "http://quickstart.example.org/hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "processed at the edge by edge-1") {
		t.Errorf("body = %q", resp.Body)
	}
	if node.Stats().Requests != 1 {
		t.Errorf("stats = %+v", node.Stats())
	}
}

// TestPublicAPIOverlayAndBus: two embedded nodes share a Ring, which is
// both their overlay and the messaging service their hard state replicates
// over: a key written at one reads back at the other.
func TestPublicAPIOverlayAndBus(t *testing.T) {
	ring := NewRing()
	origin := FetcherFunc(func(req *Request) (*Response, error) {
		if req.Path() == "/big" {
			r := NewHTMLResponse(200, strings.Repeat("x", 5000))
			r.SetMaxAge(600)
			return r, nil
		}
		return NewTextResponse(404, "not found"), nil
	})
	a, err := NewNode(Config{Name: "edge-a", Region: "us-east", Upstream: origin, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{Name: "edge-b", Region: "asia", Upstream: origin, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	if len(ring.Nodes()) != 2 {
		t.Errorf("ring size = %d", len(ring.Nodes()))
	}
	rd := NewRedirector(ring)
	if rd.Pick("asia") != "edge-b" {
		t.Errorf("redirector pick = %q", rd.Pick("asia"))
	}
	if _, _, err := a.Handle(MustRequest("GET", "http://files.example.org/big")); err != nil {
		t.Fatal(err)
	}
	if err := a.StatePut("files.example.org", "owner", "maria"); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.StateGet("files.example.org", "owner"); !ok || v != "maria" {
		t.Errorf("hard state written at edge-a reads (%q, %v) at edge-b", v, ok)
	}
}
