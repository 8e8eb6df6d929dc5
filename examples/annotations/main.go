// Annotations: the Section 5.4 electronic post-it-note extension. A site
// (annotations.example.org) layers itself over the SIMM medical-education
// content hosted elsewhere: it rewrites request URLs to the original site,
// injects stored annotations into the returned HTML, and accepts new
// annotations into its own replicated hard state — all as dynamically
// composed pipeline stages on the same edge node.
package main

import (
	"fmt"
	"log"

	"nakika"
	"nakika/internal/apps/extensions"
	"nakika/internal/apps/simm"
)

func main() {
	// The original content producer: the synthetic SIMM origin.
	simmOrigin := simm.NewOrigin(simm.Config{})
	simmHost := simmOrigin.Config().Host

	origin := nakika.FetcherFunc(func(req *nakika.Request) (*nakika.Response, error) {
		switch {
		case req.Host() == "annotations.example.org" && req.Path() == "/nakika.js":
			r := nakika.NewTextResponse(200, extensions.AnnotationsScript)
			r.SetMaxAge(300)
			return r, nil
		case req.Host() == simmHost && req.Path() == "/nakika.js":
			r := nakika.NewTextResponse(200, simm.EdgeScript(simmHost))
			r.SetMaxAge(300)
			return r, nil
		case req.Host() == simmHost:
			return simmOrigin.Do(req)
		default:
			return nakika.NewTextResponse(404, "not found"), nil
		}
	})

	node, err := nakika.NewNode(nakika.Config{Name: "annotations-edge", Upstream: origin})
	if err != nil {
		log.Fatal(err)
	}

	// A student posts an annotation for module 1, section 2.
	post := nakika.MustRequest("POST", "http://annotations.example.org/annotate?student=maria&target=/module/1/section/2.html")
	post.ClientIP = "10.0.0.9"
	post.Body = []byte("Remember: check distal pulses after the procedure.")
	resp, _, err := node.Handle(post)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /annotate -> %d: %s\n", resp.Status, resp.Body)

	// Viewing the annotated lecture goes through three non-administrative
	// stages: URL rewriting + annotation injection (annotations site) and
	// the SIMM rendering stage, composed dynamically on one node.
	view := nakika.MustRequest("GET", "http://annotations.example.org/module/1/section/2.html?student=maria")
	view.ClientIP = "10.0.0.9"
	resp, trace, err := node.Handle(view)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET annotated lecture -> %d (%d pipeline stages)\n", resp.Status, len(trace.Stages))
	fmt.Println(string(resp.Body))
}
