// Transcoder: the Section 5.4 image-transcoding extension. An origin serves
// a large PNG; clients whose User-Agent matches a Nokia phone receive a JPEG
// scaled to fit a 176x208 screen, transcoded and cached at the edge.
package main

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log"

	"nakika"
	"nakika/internal/apps/extensions"
)

func makePNG(w, h int) []byte {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Set(x, y, color.RGBA{R: uint8(x), G: uint8(y), B: 180, A: 255})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	photo := makePNG(800, 600)
	origin := nakika.FetcherFunc(func(req *nakika.Request) (*nakika.Response, error) {
		switch {
		case req.Host() == "photos.example.org" && req.Path() == "/vacation.png":
			r := nakika.NewTextResponse(200, "")
			r.Header.Set("Content-Type", "image/png")
			r.SetBody(photo)
			r.SetMaxAge(600)
			return r, nil
		case req.Host() == "nakika.net" && req.Path() == "/clientwall.js":
			// The transcoding extension is deployed as an administrative
			// stage here so it applies to every site; a site could equally
			// schedule it from its own nakika.js.
			r := nakika.NewTextResponse(200, extensions.TranscoderScript)
			r.SetMaxAge(600)
			return r, nil
		default:
			return nakika.NewTextResponse(404, "not found"), nil
		}
	})

	node, err := nakika.NewNode(nakika.Config{Name: "transcoder-edge", Upstream: origin})
	if err != nil {
		log.Fatal(err)
	}

	fetch := func(userAgent string) *nakika.Response {
		req := nakika.MustRequest("GET", "http://photos.example.org/vacation.png")
		req.ClientIP = "10.0.0.1"
		if userAgent != "" {
			req.Header.Set("User-Agent", userAgent)
		}
		resp, _, err := node.Handle(req)
		if err != nil {
			log.Fatal(err)
		}
		return resp
	}

	desktop := fetch("Mozilla/5.0 (X11; Linux x86_64)")
	fmt.Printf("desktop browser: %s, %d bytes (original)\n", desktop.ContentType(), len(desktop.Body))

	phone := fetch("Mozilla/4.0 (compatible; Nokia6600)")
	cfg, format, err := image.DecodeConfig(bytes.NewReader(phone.Body))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Nokia phone:     %s (%s %dx%d), %d bytes, transcode cache: %s\n",
		phone.ContentType(), format, cfg.Width, cfg.Height, len(phone.Body), phone.Header.Get("X-Transcode-Cache"))

	phoneAgain := fetch("Mozilla/4.0 (compatible; Nokia6600)")
	fmt.Printf("Nokia phone (2): %s, %d bytes, transcode cache: %s\n",
		phoneAgain.ContentType(), len(phoneAgain.Body), phoneAgain.Header.Get("X-Transcode-Cache"))
}
