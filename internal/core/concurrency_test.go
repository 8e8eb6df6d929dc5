package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nakika/internal/httpmsg"
)

// slowCountingOrigin counts upstream fetches per URL and holds each one long
// enough that a stampede would overlap in flight.
type slowCountingOrigin struct {
	delay   time.Duration
	mu      sync.Mutex
	fetches map[string]int
}

func newSlowCountingOrigin(delay time.Duration) *slowCountingOrigin {
	return &slowCountingOrigin{delay: delay, fetches: make(map[string]int)}
}

func (o *slowCountingOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	o.mu.Lock()
	o.fetches[req.URL.String()]++
	o.mu.Unlock()
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	switch req.Path() {
	case "/nakika.js", "/clientwall.js", "/serverwall.js":
		return httpmsg.NewTextResponse(404, "none"), nil
	default:
		resp := httpmsg.NewHTMLResponse(200, "body of "+req.URL.String())
		resp.SetMaxAge(600)
		return resp, nil
	}
}

func (o *slowCountingOrigin) count(url string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fetches[url]
}

// TestColdCacheStampedeCoalesces verifies that N concurrent misses of the
// same key issue exactly one origin fetch, with the response fanned out to
// every waiter.
func TestColdCacheStampedeCoalesces(t *testing.T) {
	origin := newSlowCountingOrigin(20 * time.Millisecond)
	node, err := NewNode(Config{Name: "stampede", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	const url = "http://hot.example.org/item"
	const waiters = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _, err := node.Handle(httpmsg.MustRequest("GET", url))
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != 200 || string(resp.Body) != "body of "+url {
				errs <- fmt.Errorf("bad response: %d %q", resp.Status, resp.Body)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := origin.count(url); got != 1 {
		t.Errorf("origin fetched %d times for %d concurrent misses, want exactly 1", got, waiters)
	}
	st := node.Stats()
	if st.OriginFetches != 1+3 { // the item plus the three script probes
		t.Errorf("OriginFetches = %d, want 4 (item + clientwall + serverwall + nakika.js)", st.OriginFetches)
	}
	if st.CoalescedFetches < waiters-1 {
		t.Errorf("CoalescedFetches = %d, want >= %d", st.CoalescedFetches, waiters-1)
	}
}

// TestStampedeWaitersGetIndependentBodies checks that coalesced responses
// are safe to mutate once materialized, as a script's body access does:
// every pipeline then owns its copy.
func TestStampedeWaitersGetIndependentBodies(t *testing.T) {
	origin := newSlowCountingOrigin(10 * time.Millisecond)
	node, err := NewNode(Config{Name: "fanout", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	const url = "http://fan.example.org/doc"
	const waiters = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _, err := node.Handle(httpmsg.MustRequest("GET", url))
			if err != nil {
				t.Error(err)
				return
			}
			// Scribble over the whole body; any sharing between waiters (or
			// with the cached copy) trips the race detector or the final
			// content check.
			if err := resp.Materialize(); err != nil {
				t.Error(err)
				return
			}
			for j := range resp.Body {
				resp.Body[j] = '!'
			}
		}()
	}
	close(start)
	wg.Wait()
	resp, _, err := node.Handle(httpmsg.MustRequest("GET", url))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "body of "+url {
		t.Errorf("cached body corrupted by waiter mutation: %q", resp.Body)
	}
}

// TestScriptCannotWriteThroughCachedBody: a cache hit shares the stored
// bytes, so an untrusted script that writes into the body it is handed —
// through Response.body(), Response.read() and a Fetch.get sub-fetch — must
// write into a copy of its own. Every hit, from 8 goroutines at once, sees
// the origin's bytes, and so does the cache afterwards.
func TestScriptCannotWriteThroughCachedBody(t *testing.T) {
	const (
		page = "http://sec.example.org/doc"
		side = "http://sec.example.org/side"
		orig = "<p>origin bytes</p>"
	)
	origin := newMemOrigin()
	origin.addText(page, orig, 300)
	origin.addText(side, "side bytes", 300)
	origin.addScript("http://sec.example.org/nakika.js", `
		var p = new Policy();
		p.url = [ "sec.example.org/doc" ];
		p.onResponse = function() {
			var f = Fetch.get("`+side+`");
			var seenSide = f.body.toString();
			f.body[0] = 90;
			var b = Response.body();
			var seen = b.toString();
			b[0] = 88;
			var c = Response.read();
			c[1] = 89;
			Response.write(seen + "|" + b.toString() + "|" + seenSide);
		};
		p.register();
	`)
	n := newTestNode(t, "edge-sec", origin, nil)
	want := orig + "|XY" + orig[2:] + "|side bytes"

	const goroutines, hits = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				resp, _, err := n.Handle(httpmsg.MustRequest("GET", page))
				if err != nil {
					t.Error(err)
					return
				}
				if string(resp.Body) != want {
					t.Errorf("hit %d: body %q, want %q", i, resp.Body, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := origin.hitCount(page); got != 1 {
		t.Errorf("origin served the page %d times; the hits should come from the cache", got)
	}
	for url, body := range map[string]string{page: orig, side: "side bytes"} {
		got := n.cache.Get(httpmsg.MustRequest("GET", url).CacheKey())
		if got == nil {
			t.Errorf("%s is not cached", url)
		} else if string(got.Body) != body {
			t.Errorf("cache holds %q for %s, want the origin's %q", got.Body, url, body)
		}
	}
}

// TestConcurrentMixedTraffic drives 32 goroutines through one node — shared
// stages (a scripted site), shared cache, a mix of cold and warm keys — as
// the package's race-detector workout for the pooled request path.
func TestConcurrentMixedTraffic(t *testing.T) {
	var upstream atomic.Int64
	origin := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		upstream.Add(1)
		switch req.Path() {
		case "/nakika.js":
			r := httpmsg.NewTextResponse(200, `
				var served = 0;
				var p = new Policy();
				p.url = [ "conc.example.org" ];
				p.onResponse = function() {
					served = served + 1;
					Response.setHeader("X-Served", served);
					var b = new ByteArray(), c;
					while (c = Response.read()) { b.append(c); }
					Response.write(b.toString() + "+edge");
				};
				p.register();
			`)
			r.SetMaxAge(600)
			return r, nil
		case "/clientwall.js", "/serverwall.js":
			return httpmsg.NewTextResponse(404, "none"), nil
		default:
			r := httpmsg.NewHTMLResponse(200, "origin:"+req.Path())
			r.SetMaxAge(600)
			return r, nil
		}
	})
	node, err := NewNode(Config{Name: "conc", Upstream: origin})
	if err != nil {
		t.Fatal(err)
	}
	// Warm one key so the workload mixes warm hits with cold misses.
	if _, _, err := node.Handle(httpmsg.MustRequest("GET", "http://conc.example.org/warm")); err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var url string
				switch i % 3 {
				case 0:
					url = "http://conc.example.org/warm"
				case 1:
					url = fmt.Sprintf("http://conc.example.org/cold-%d-%d", g, i)
				default:
					url = fmt.Sprintf("http://conc.example.org/shared-%d", i%5)
				}
				resp, _, err := node.Handle(httpmsg.MustRequest("GET", url))
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != 200 {
					errs <- fmt.Errorf("%s -> %d", url, resp.Status)
					return
				}
				want := "origin:" + httpmsg.MustRequest("GET", url).Path() + "+edge"
				if string(resp.Body) != want {
					errs <- fmt.Errorf("%s body = %q, want %q", url, resp.Body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := node.Stats()
	if st.Requests != 1+goroutines*perG {
		t.Errorf("requests = %d, want %d", st.Requests, 1+goroutines*perG)
	}
	if st.CacheHits == 0 {
		t.Error("warm keys should produce cache hits")
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
}
