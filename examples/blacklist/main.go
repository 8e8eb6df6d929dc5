// Blacklist: the Section 5.4 content-blocking extension. The client-side
// administrative control stage fetches a blacklist from a well-known URL and
// dynamically generates policy objects that deny access to every listed URL
// prefix with an HTTP 403 — security policy expressed, distributed, and
// updated as an ordinary script.
package main

import (
	"fmt"
	"log"

	"nakika"
	"nakika/internal/apps/extensions"
)

const blacklist = `# Na Kika network blacklist
piracy.example.net
malware.example.com/downloads
`

func main() {
	origin := nakika.FetcherFunc(func(req *nakika.Request) (*nakika.Response, error) {
		switch {
		case req.Host() == "nakika.net" && req.Path() == "/blacklist.txt":
			r := nakika.NewTextResponse(200, blacklist)
			r.SetMaxAge(300)
			return r, nil
		case req.Host() == "nakika.net" && req.Path() == "/clientwall.js":
			r := nakika.NewTextResponse(200, extensions.BlacklistScript)
			r.SetMaxAge(300)
			return r, nil
		case req.Path() == "/nakika.js" || req.Path() == "/serverwall.js":
			return nakika.NewTextResponse(404, "none"), nil
		default:
			return nakika.NewHTMLResponse(200, "content from "+req.Host()+req.Path()), nil
		}
	})

	node, err := nakika.NewNode(nakika.Config{Name: "blacklist-edge", Upstream: origin})
	if err != nil {
		log.Fatal(err)
	}

	for _, url := range []string{
		"http://news.example.org/today",
		"http://piracy.example.net/latest",
		"http://malware.example.com/downloads/tool.exe",
		"http://malware.example.com/about",
	} {
		resp, _, err := node.Handle(nakika.MustRequest("GET", url))
		if err != nil {
			log.Fatal(err)
		}
		verdict := "allowed"
		if resp.Status == 403 {
			verdict = "BLOCKED"
		}
		fmt.Printf("%-48s -> %d (%s)\n", url, resp.Status, verdict)
	}
}
