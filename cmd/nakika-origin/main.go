// Command nakika-origin runs one of the synthetic origin applications used
// by the evaluation (the SIMM medical-education app or the SPECweb99-like
// app) as a real HTTP server, publishing its nakika.js so edge nodes can
// pick up the site's pipeline stage.
//
//	nakika-origin -app simm -listen :9090
//	nakika-origin -app specweb -listen :9091
//	nakika-origin -app largefile -listen :9092 -size 67108864 -throttle 8388608
package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	"sync"

	"nakika/internal/apps/largefile"
	"nakika/internal/apps/simm"
	"nakika/internal/apps/specweb"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
)

// logSinkPath is where the origin collects POSTed access-log lines.
const logSinkPath = "/nakika-log"

func main() {
	app := flag.String("app", "simm", "application to serve: simm, specweb, or largefile")
	listen := flag.String("listen", ":9090", "address to listen on")
	host := flag.String("host", "", "origin host name the site script should reference (default: the app's default host)")
	size := flag.Int64("size", 64<<20, "largefile: object size in bytes")
	throttle := flag.Int64("throttle", 0, "largefile: origin write rate cap in bytes/sec (0 unlimited)")
	flag.Parse()

	// The largefile app streams and throttles its body, so it serves raw
	// HTTP instead of going through the buffered fetcher adapter below.
	if *app == "largefile" {
		origin := largefile.NewOrigin(largefile.Config{Host: *host, Size: *size, ThrottleBytesPerSec: *throttle})
		log.Printf("nakika-origin: serving largefile (%d bytes) on %s", origin.Config().Size, *listen)
		log.Fatal(http.ListenAndServe(*listen, origin))
	}

	var fetcher core.Fetcher
	var siteScript string
	switch *app {
	case "simm":
		origin := simm.NewOrigin(simm.Config{Host: *host})
		fetcher = origin
		siteScript = simm.EdgeScript(origin.Config().Host)
	case "specweb":
		origin := specweb.NewOrigin(specweb.Config{Host: *host})
		fetcher = origin
		siteScript = specweb.EdgeScript(origin.Config().Host)
	default:
		log.Fatalf("nakika-origin: unknown app %q", *app)
	}

	// The access-log sink: a site script that names this path with
	// Log.postTo has edge nodes POST the site's log lines here, and a GET
	// returns every line received so far.
	var sinkMu sync.Mutex
	var sink []byte
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == logSinkPath {
			if r.Method == http.MethodPost {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				sinkMu.Lock()
				sink = append(append(sink, body...), '\n')
				sinkMu.Unlock()
				return
			}
			sinkMu.Lock()
			lines := append([]byte(nil), sink...)
			sinkMu.Unlock()
			w.Header().Set("Content-Type", "text/plain")
			w.Header().Set("Cache-Control", "no-store")
			if _, err := w.Write(lines); err != nil {
				log.Printf("nakika-origin: write: %v", err)
			}
			return
		}
		if r.URL.Path == "/nakika.js" {
			w.Header().Set("Content-Type", "application/javascript")
			w.Header().Set("Cache-Control", "max-age=300")
			if _, err := w.Write([]byte(siteScript)); err != nil {
				log.Printf("nakika-origin: write: %v", err)
			}
			return
		}
		req, err := httpmsg.FromHTTPRequest(r, 8<<20)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := fetcher.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := resp.WriteTo(w); err != nil {
			log.Printf("nakika-origin: write: %v", err)
		}
	})

	log.Printf("nakika-origin: serving %s on %s", *app, *listen)
	log.Fatal(http.ListenAndServe(*listen, handler))
}
