package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nakika"
	"nakika/internal/apps/largefile"
	"nakika/internal/apps/simm"
	"nakika/internal/apps/specweb"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/resource"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// The traced pass and the fast tests run the same topology as the
// measured windows inside this process: nodes built with nakika.NewNode
// from the settings cmd/nakikad ships, served from http.Servers on
// loopback, against the same origin applications. That is the only place
// span-recording wrappers can sit without touching the program.

// originApp is an origin application as cmd/nakika-origin serves it.
type originApp struct {
	handler http.Handler
	// fetcher is the same application as a core.Fetcher (nil for
	// largefile, which only speaks HTTP); the layer loops call it directly.
	fetcher core.Fetcher
	// script is the site's nakika.js.
	script string
}

// newOriginApp builds w's origin for the given host, mirroring
// cmd/nakika-origin's handler.
func newOriginApp(w *workload, host string) (originApp, error) {
	switch w.app {
	case "largefile":
		o := largefile.NewOrigin(largefile.Config{Host: host, Size: int64(w.objectBytes)})
		return originApp{handler: o, script: largefile.EdgeScript(host)}, nil
	case "simm":
		o := simm.NewOrigin(simm.Config{Host: host})
		return fetcherApp(o, simm.EdgeScript(host)), nil
	case "specweb":
		o := specweb.NewOrigin(specweb.Config{Host: host})
		return fetcherApp(o, specweb.EdgeScript(host)), nil
	}
	return originApp{}, fmt.Errorf("unknown origin app %q", w.app)
}

func fetcherApp(fetcher core.Fetcher, script string) originApp {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/nakika.js" {
			w.Header().Set("Content-Type", "application/javascript")
			w.Header().Set("Cache-Control", "max-age=300")
			_, _ = w.Write([]byte(script)) // a client that went away is not the origin's problem
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
		_ = resp.WriteTo(w)
	})
	return originApp{handler: h, fetcher: fetcher, script: script}
}

// shippedConfig is cmd/nakikad's configuration at its flag defaults.
func shippedConfig(name, originHost string) nakika.Config {
	return nakika.Config{
		Name:                 name,
		Region:               "default",
		ClientWallURL:        "http://" + originHost + "/clientwall.js",
		ServerWallURL:        "http://" + originHost + "/serverwall.js",
		ReplicationFactor:    3,
		LeaseTTL:             30 * time.Second,
		EnableResources:      true,
		LargeObjectThreshold: 1 << 20,
		LargeObjectSegment:   256 << 10,
		LargeObjectCapacity:  512 << 20,
		LocalNetworks:        []string{"127.0.0.0/8"},
		Resources: resource.Config{Capacity: map[resource.Kind]float64{
			resource.CPU:    50_000_000,
			resource.Memory: 256 << 20,
		}},
	}
}

// inproc is a workload's topology running inside this process.
type inproc struct {
	a        addrs
	app      originApp
	nodes    []*nakika.Node
	servers  []*http.Server
	tcps     []*transport.TCP
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// serve serves h at addr until stop.
func (p *inproc) serve(addr string, h http.Handler) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	p.servers = append(p.servers, srv)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = srv.Serve(l) // returns ErrServerClosed on stop
	}()
	return nil
}

// inprocStarter starts in-process topologies; rec, when non-nil, is
// wired in at every seam.
func inprocStarter(rec *recorder) starter {
	return func(w *workload, a addrs, dir string) (topology, error) { return startInproc(w, a, dir, rec) }
}

// startInproc builds w's topology in this process at the reserved
// addresses. dir roots the data directories.
func startInproc(w *workload, a addrs, dir string, rec *recorder) (*inproc, error) {
	p := &inproc{a: a, quit: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			p.stop()
		}
	}()

	app, err := newOriginApp(w, a.origin)
	if err != nil {
		return nil, err
	}
	p.app = app
	if err := p.serve(a.origin, app.handler); err != nil {
		return nil, err
	}

	// Cluster transports first: every node dials its peers by address.
	if w.nodes > 1 {
		for i := 0; i < w.nodes; i++ {
			tcp := transport.NewTCP()
			p.tcps = append(p.tcps, tcp)
			if _, err := tcp.Listen(a.rpc[i]); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < w.nodes; i++ {
		cfg := shippedConfig(nodeName(i), p.a.origin)
		upstream := &core.HTTPFetcher{}
		if rec != nil {
			cfg.Upstream = tracedUpstream{next: upstream, rec: rec}
		} else {
			cfg.Upstream = upstream
		}
		if w.dataDir {
			fs, err := store.NewDirFS(filepath.Join(dir, "data-"+nodeName(i)))
			if err != nil {
				return nil, err
			}
			cfg.DataFS = fs
			if rec != nil {
				cfg.DataFS = tracedFS{next: fs, rec: rec}
			}
		}
		if w.nodes > 1 {
			var tr transport.Transport = p.tcps[i]
			if rec != nil {
				tr = tracedTransport{next: tr, rec: rec}
			}
			ring := nakika.NewRing()
			ring.Transport = tr
			cfg.Ring, cfg.Transport = ring, tr
			for j := 0; j < w.nodes; j++ {
				if j != i {
					ring.AddRemote(nodeName(j), "remote")
					p.tcps[i].AddPeer(nodeName(j), p.a.rpc[j])
				}
			}
		}
		node, err := nakika.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		p.nodes = append(p.nodes, node)
		var h http.Handler = node
		if rec != nil {
			h = tracedHandler{next: node, rec: rec}
		}
		if err := p.serve(a.http[i], h); err != nil {
			return nil, err
		}
	}
	// cmd/nakikad's congestion-control loop; its other background loops
	// (log flush every minute, cluster maintenance every 5 s) do nothing
	// within a pass this short on a healthy cluster.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				for _, n := range p.nodes {
					n.Resources().ControlOnce()
				}
			}
		}
	}()
	ok = true
	return p, nil
}

// stop stops servers, transports and nodes and waits for them.
func (p *inproc) stop() {
	p.stopOnce.Do(func() {
		close(p.quit)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, s := range p.servers {
			if err := s.Shutdown(ctx); err != nil {
				s.Close()
			}
		}
		for _, t := range p.tcps {
			t.Close()
		}
		for _, n := range p.nodes {
			_ = n.Shutdown() // the data directory is about to be deleted
		}
		p.wg.Wait()
	})
}

// scrape renders every node's registry as /metrics would and sums them.
func (p *inproc) scrape() (scrape, error) {
	sum := make(scrape)
	for _, n := range p.nodes {
		var text strings.Builder
		if err := n.Metrics().WriteText(&text); err != nil {
			return nil, err
		}
		s, err := parseScrape(text.String())
		if err != nil {
			return nil, err
		}
		sum.add(s)
	}
	return sum, nil
}

// nodePIDs is this process: the nodes share it with the generator, and
// the origin cannot be told apart from them.
func (p *inproc) nodePIDs() []int { return []int{os.Getpid()} }

func (p *inproc) originPID() int { return 0 }

func (p *inproc) logTails(int) string { return "" }
