package main

import "testing"

// A hand-built request: the client span holds the handler span, which
// holds two overlapping calls (concurrent siblings, as the two replica
// pushes of a State.put are), the later of which holds a file sync.
func TestResolveSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "fs.sync:state", Level: levelFS, Start: 32, End: 38},
		{Name: "rpc:b", Level: levelCall, Start: 30, End: 50},
		{Name: "client.request", Level: levelClient, Start: 0, End: 100},
		{Name: "rpc:a", Level: levelCall, Start: 20, End: 40},
		{Name: "core.serve_http", Level: levelHandler, Start: 10, End: 90},
		// The next request starts before the first one's handler returned:
		// the client had its last byte at 100, the handler span closed later.
		{Name: "client.request", Level: levelClient, Start: 101, End: 150},
		{Name: "core.serve_http", Level: levelHandler, Start: 105, End: 152},
		// Work no request was waiting for.
		{Name: "fs.write:cache", Level: levelFS, Start: 200, End: 210},
	}
	resolve(spans)
	byName := func(name string, nth int) span {
		for _, s := range spans {
			if s.Name == name {
				if nth == 0 {
					return s
				}
				nth--
			}
		}
		t.Fatalf("no span %s", name)
		return span{}
	}
	root, handler := byName("client.request", 0), byName("core.serve_http", 0)
	a, b, sync := byName("rpc:a", 0), byName("rpc:b", 0), byName("fs.sync:state", 0)
	if root.Parent != -1 || handler.Parent != root.ID || a.Parent != handler.ID || b.Parent != handler.ID {
		t.Errorf("parents: root %d handler %d a %d b %d", root.Parent, handler.Parent, a.Parent, b.Parent)
	}
	if sync.Parent != b.ID {
		t.Errorf("sync's parent = %d, want the innermost open call %d", sync.Parent, b.ID)
	}
	// Self time = duration - union of the children's intervals.
	for _, c := range []struct {
		s    span
		want int64
	}{{root, 20}, {handler, 80 - 30}, {a, 20}, {b, 20 - 6}, {sync, 6}} {
		if c.s.Self != c.want {
			t.Errorf("%s self = %d, want %d", c.s.Name, c.s.Self, c.want)
		}
	}
	// Children plus self time sum to the span, by construction.
	if got := handler.Self + covered(spans, handler, []int{a.ID, b.ID}); got != handler.dur() {
		t.Errorf("handler self + covered = %d, want its duration %d", got, handler.dur())
	}
	second := byName("core.serve_http", 1)
	if second.Parent != byName("client.request", 1).ID {
		t.Errorf("second handler's parent = %d, want the second request", second.Parent)
	}
	if bg := byName("fs.write:cache", 0); bg.Parent != -1 {
		t.Errorf("background write's parent = %d, want none", bg.Parent)
	}
}

func TestTracedMetricsFromForest(t *testing.T) {
	w := workloadByName("state_rw")
	spans := []span{
		{Name: "client.request", Level: levelClient, Start: 0, End: 100_000},
		{Name: "core.serve_http", Level: levelHandler, Start: 10_000, End: 90_000},
		{Name: "rpc:rep.store", Level: levelCall, Start: 20_000, End: 60_000},
		{Name: "fs.sync:state", Level: levelFS, Start: 30_000, End: 50_000},
	}
	resolve(spans)
	m := make(metricSet)
	tracedMetrics(w, []op{{class: 1}}, spans, map[string]int64{"rpc.calls": 1, "rpc.bytes": 80}, m)
	for name, want := range map[string]float64{
		"core.serve_http_us":            80,
		"core.serve_http_self_us":       40,
		"net.overhead_us":               20,
		"trace.unattributed_share":      0.4,
		"transport.rpcs_per_req":        1,
		"transport.rpc_wait_us_per_req": 40,
		"transport.bytes_per_rpc":       80,
		"store.fsync_us_p50":            20,
		"store.fsync_share_of_write":    0.2,
	} {
		if !near(m[name], want) {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}
