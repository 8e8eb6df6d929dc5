package extensions

import (
	"testing"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

func TestScriptsParse(t *testing.T) {
	for name, src := range map[string]string{
		"annotations": AnnotationsScript,
		"transcoder":  TranscoderScript,
		"blacklist":   BlacklistScript,
	} {
		if _, err := script.Parse(src, name+".js"); err != nil {
			t.Errorf("extension %s does not parse: %v", name, err)
		}
	}
}

func TestBlacklistExtensionEndToEnd(t *testing.T) {
	// Deploy the generated blacklist stage on a node and verify blocking.
	origin := core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		switch {
		case req.Host() == "nakika.net" && req.Path() == "/blacklist.txt":
			return httpmsg.NewTextResponse(200, "# blocked sites\nbad.example.net\nworse.example.net/illegal\n"), nil
		case req.Host() == "nakika.net" && req.Path() == "/clientwall.js":
			r := httpmsg.NewTextResponse(200, BlacklistScript)
			r.SetMaxAge(600)
			return r, nil
		case req.Path() == "/nakika.js" || req.Path() == "/serverwall.js":
			return httpmsg.NewTextResponse(404, "none"), nil
		default:
			return httpmsg.NewHTMLResponse(200, "served "+req.Host()+req.Path()), nil
		}
	})
	node, err := core.NewNode(core.Config{Name: "blacklist-node", Upstream: origin, ClientWallURL: "http://nakika.net/clientwall.js"})
	if err != nil {
		t.Fatal(err)
	}
	blocked, _, err := node.Handle(httpmsg.MustRequest("GET", "http://bad.example.net/page"))
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Status != 403 {
		t.Errorf("blacklisted host status = %d, want 403", blocked.Status)
	}
	allowed, _, err := node.Handle(httpmsg.MustRequest("GET", "http://fine.example.net/page"))
	if err != nil {
		t.Fatal(err)
	}
	if allowed.Status != 200 {
		t.Errorf("non-blacklisted host status = %d", allowed.Status)
	}
	pathBlocked, _, err := node.Handle(httpmsg.MustRequest("GET", "http://worse.example.net/illegal/item"))
	if err != nil {
		t.Fatal(err)
	}
	if pathBlocked.Status != 403 {
		t.Errorf("blacklisted path status = %d", pathBlocked.Status)
	}
	pathAllowed, _, err := node.Handle(httpmsg.MustRequest("GET", "http://worse.example.net/legal"))
	if err != nil {
		t.Fatal(err)
	}
	if pathAllowed.Status != 200 {
		t.Errorf("non-blacklisted path status = %d", pathAllowed.Status)
	}
}
