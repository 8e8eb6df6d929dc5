package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/lease"
)

// TestOneClockReachesEveryReader: a node reads time from Config.Clock alone.
// With the clock a fake set to T, scripts, cache freshness, lease expiry, the
// access log and pipeline timing all see T, and only T's advances.
func TestOneClockReachesEveryReader(t *testing.T) {
	const site = "http://clock.example.org"
	T := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	clock := &testClock{now: T}
	at := func(d time.Duration) {
		clock.mu.Lock()
		clock.now = T.Add(d)
		clock.mu.Unlock()
	}
	origin := newMemOrigin()
	origin.addText(site+"/page", "page", 10)
	origin.addText(site+"/slow", "slow", 60)
	origin.addScript(site+"/nakika.js", `
		Log.postTo("`+site+`/log");
		var p = new Policy();
		p.url = [ "clock.example.org/time" ];
		p.onRequest = function() {
			Response.setHeader("Content-Type", "text/plain");
			Response.write("" + System.time());
		};
		p.register();
	`)
	upstream := FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		if req.URL.Path == "/slow" {
			clock.Advance(7 * time.Millisecond)
		}
		return origin.Do(req)
	})
	n := newTestNodeUpstream(t, "edge-1", upstream, func(cfg *Config) { cfg.Clock = clock.Now })
	get := func(t *testing.T, path string) (*httpmsg.Response, time.Duration) {
		t.Helper()
		resp, trace, err := n.Handle(httpmsg.MustRequest("GET", site+path))
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET %s: %+v, %v", path, resp, err)
		}
		return resp, trace.Elapsed
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"System.time is T in milliseconds", func(t *testing.T) {
			resp, _ := get(t, "/time")
			if ms, err := strconv.ParseFloat(string(resp.Body), 64); err != nil || int64(ms) != T.UnixMilli() {
				t.Errorf("System.time() = %q, want %d", resp.Body, T.UnixMilli())
			}
		}},
		{"a max-age=10 entry is fresh at T+9s and stale at T+11s", func(t *testing.T) {
			get(t, "/page")
			at(9 * time.Second)
			get(t, "/page")
			if hits := origin.hitCount(site + "/page"); hits != 1 {
				t.Errorf("origin hits at T+9s = %d, want 1", hits)
			}
			at(11 * time.Second)
			get(t, "/page")
			if hits := origin.hitCount(site + "/page"); hits != 2 {
				t.Errorf("origin hits at T+11s = %d, want 2", hits)
			}
		}},
		{"a 5 s lease taken at T is granted to another holder at T+6s", func(t *testing.T) {
			if _, ok := n.LeaseAcquire("clock.example.org", "job", 5*time.Second); !ok {
				t.Fatal("lease not granted at T")
			}
			other := func() string {
				reply, err := n.ownerLeaseAcquire(leaseReq{Site: "clock.example.org", Name: "job", Holder: "edge-2", TTL: int64(5 * time.Second)})
				if err != nil || len(reply.Args) == 0 {
					t.Fatalf("acquire by edge-2: %+v, %v", reply, err)
				}
				return reply.Args[0]
			}
			at(4 * time.Second)
			if got := other(); got != lease.Denied.String() {
				t.Errorf("acquire by another holder at T+4s: %s, want %s", got, lease.Denied)
			}
			at(6 * time.Second)
			if got := other(); got != lease.ExpiryGrant.String() {
				t.Errorf("acquire by another holder at T+6s: %s, want %s", got, lease.ExpiryGrant)
			}
		}},
		{"an access-log line is stamped T", func(t *testing.T) {
			if err := n.FlushLogs(); err != nil { // what the rows before logged
				t.Fatal(err)
			}
			get(t, "/time")
			if err := n.FlushLogs(); err != nil {
				t.Fatal(err)
			}
			origin.mu.Lock()
			posts := origin.posts[site+"/log"]
			origin.mu.Unlock()
			if len(posts) == 0 {
				t.Fatal("nothing posted to the site's log URL")
			}
			last := posts[len(posts)-1]
			if want := T.Format(time.RFC3339) + " "; !strings.HasPrefix(last, want) || strings.Count(last, "\n") != 0 {
				t.Errorf("posted log = %q, want one line stamped %q", last, want)
			}
		}},
		{"an origin that takes 7 ms makes Trace.Elapsed at least 7 ms", func(t *testing.T) {
			if _, elapsed := get(t, "/slow"); elapsed < 7*time.Millisecond {
				t.Errorf("Trace.Elapsed = %v, want at least 7ms", elapsed)
			}
		}},
	} {
		at(0)
		t.Run(tc.name, tc.run)
	}
}
