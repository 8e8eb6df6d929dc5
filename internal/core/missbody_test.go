package core

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"nakika/internal/httpmsg"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// heapPerRun returns the allocations and bytes allocated per call of f,
// counted over runs calls on one processor, as testing.AllocsPerRun counts.
func heapPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestColdMissAllocCeiling holds a cold miss of a cacheable 10 000-byte
// reply to what it allocates: through Node.Handle with the large-object
// tier on, over the real HTTPFetcher, to a canned loopback origin. The body
// is read once, into a buffer of its declared length, and the cache keeps
// that buffer. In the first case both walls point at the origin, whose
// reply is a script comment, so they load once as stages with no policies;
// in the second the node runs no wall and fetches none. Measured on go1.24
// amd64, walls at the origin: 15.3 allocations and 11.8 KB per miss since
// the policy walk reads the URL in place and the trace ring copies its
// sample (22.3 and 12.3 KB before); 23.3 and 12.4 KB since a header is one
// string from the socket to the store (29.2 and 13.0 KB when it was a map
// the store encoded; 33.2 and 13.5 KB when the store cloned the reply's
// header map onto a list element; 43 and 59.5 KB when the body was read by
// doubling and the store copied it). Walls unset: the same 15.3 and 11.8 KB, so a
// loaded wall stage costs a miss no allocation. When a wall that failed to
// load was fetched again by every request, a node on unresolvable walls
// read about 736 allocations per miss.
func TestColdMissAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries on purpose, so pooled objects are reallocated")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := "/*" + strings.Repeat("-", 9996) + "*/"
	go serveCanned(ln, []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nCache-Control: max-age=600\r\nContent-Length: 10000\r\n\r\n"+body))
	base := "http://" + ln.Addr().String()
	for _, tc := range []struct {
		name                      string
		walls                     bool
		allocCeiling, byteCeiling float64
	}{
		{"walls at origin", true, 16, 11900},
		{"walls unset", false, 16, 11900},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNodeUpstream(t, "cold-miss", newFetcher(t), func(cfg *Config) {
				lobConfig(256<<10, 1<<20)(cfg)
				if tc.walls {
					cfg.ClientWallURL = base + "/clientwall.js"
					cfg.ServerWallURL = base + "/serverwall.js"
				}
			})
			const warm, runs = 20, 400
			reqs := make([]*httpmsg.Request, warm+runs)
			for i := range reqs {
				reqs[i] = httpmsg.MustRequest("GET", fmt.Sprintf("%s/%d.html", base, i))
			}
			next := 0
			miss := func() {
				resp, _, err := n.Handle(reqs[next])
				next++
				if err != nil || resp.Status != http.StatusOK || resp.FromCache || string(resp.Body) != body {
					t.Fatalf("miss %d: %v, %+v", next, err, resp)
				}
			}
			for range warm {
				miss()
			}
			allocs, bytes := heapPerRun(runs, miss)
			t.Logf("per cold miss: %.1f allocations, %.0f B", allocs, bytes)
			if allocs > tc.allocCeiling || bytes > tc.byteCeiling {
				t.Errorf("a cold miss allocates %.1f times and %.0f B, ceiling %.0f and %.0f B", allocs, bytes, tc.allocCeiling, tc.byteCeiling)
			}
			if st := n.cache.Stats(); st.Stores < warm+runs {
				t.Errorf("%d stores, want every one of the %d misses stored", st.Stores, warm+runs)
			}
		})
	}
}

// TestLyingOriginCostsAtMostTheBound: an origin that declares 256 MiB, sends
// ten bytes and closes fails the fetch, through the streaming path and
// through Do, and costs the node at most the buffer a declared length buys
// (maxExactBody), not what it declared.
func TestLyingOriginCostsAtMostTheBound(t *testing.T) {
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		if req.URL.Path != "/big" {
			return notFoundReply, false
		}
		return "HTTP/1.1 200 OK\r\nCache-Control: no-store\r\nContent-Length: 268435456\r\n\r\n0123456789", true
	})
	f := newFetcher(t)
	n := newTestNodeUpstream(t, "lying-origin", f, func(cfg *Config) {
		lobConfig(256<<10, 1<<20)(cfg)
		cfg.ClientWallURL = o.url("/clientwall.js")
		cfg.ServerWallURL = o.url("/serverwall.js")
	})
	if _, _, err := n.Handle(httpmsg.MustRequest("GET", o.url("/warm"))); err != nil {
		t.Fatal(err)
	}
	const bound = 2 * 64 << 10 // the buffer, and the rest of the miss
	for _, tc := range []struct {
		name  string
		fetch func() error
	}{
		{"Node.Handle", func() error {
			resp, _, err := n.Handle(httpmsg.MustRequest("GET", o.url("/big")))
			if err == nil && resp.Status < 500 {
				return nil
			}
			return fmt.Errorf("status %v: %v", resp, err)
		}},
		{"HTTPFetcher.Do", func() error {
			_, err := f.Do(httpmsg.MustRequest("GET", o.url("/big")))
			return err
		}},
	} {
		var err error
		_, bytes := heapPerRun(1, func() { err = tc.fetch() })
		t.Logf("%s: the lying reply cost %.0f B", tc.name, bytes)
		if err == nil {
			t.Errorf("%s: a body cut short of its declared length read as complete", tc.name)
		}
		if bytes > bound {
			t.Errorf("%s: the lying reply cost %.0f B, bound %d B", tc.name, bytes, bound)
		}
	}
}

// TestStoredMissStaysIsolated: the request that fetched and stored a page
// goes on with the body it read, and the cache keeps a copy of its own. The
// request's script writes into the body from onResponse; the next request, a
// hit, serves the origin's bytes. Through the streaming path (the
// large-object tier on) and through Do.
func TestStoredMissStaysIsolated(t *testing.T) {
	const page = "<p>origin bytes</p>"
	const site = `
		var p = new Policy();
		p.url = [ "127.0.0.1/page" ];
		p.onResponse = function() {
			if (Request.getHeader("X-Scribble")) {
				var b = Response.body();
				b[0] = 88;
			}
		};
		p.register();
	`
	o := newScriptedOrigin(t, func(req *http.Request) (string, bool) {
		body := page
		switch req.URL.Path {
		case "/page":
		case "/nakika.js":
			body = site
		default:
			return notFoundReply, false
		}
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nCache-Control: max-age=600\r\nContent-Length: %d\r\n\r\n%s", len(body), body), false
	})
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"streaming path", lobConfig(256<<10, 1<<20)},
		{"Do", nil},
	} {
		n := newTestNodeUpstream(t, "stored-miss", newFetcher(t), func(cfg *Config) {
			if tc.mutate != nil {
				tc.mutate(cfg)
			}
			cfg.ClientWallURL = o.url("/clientwall.js")
			cfg.ServerWallURL = o.url("/serverwall.js")
		})
		scribble := httpmsg.MustRequest("GET", o.url("/page"))
		scribble.Header.Set("X-Scribble", "1")
		resp, _, err := n.Handle(scribble)
		if err != nil || resp.FromCache || string(resp.Body) != "X"+page[1:] {
			t.Fatalf("%s: the storing request read %v, %+v; want its script's write", tc.name, err, resp)
		}
		resp, _, err = n.Handle(httpmsg.MustRequest("GET", o.url("/page")))
		if err != nil || !resp.FromCache || string(resp.Body) != page {
			t.Errorf("%s: the next hit read %v, %+v; want the origin's bytes from the cache", tc.name, err, resp)
		}
	}
}
