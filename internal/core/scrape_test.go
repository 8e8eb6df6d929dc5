package core

import (
	"io"
	"runtime"
	"testing"

	"nakika/internal/admin"
	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
)

// TestMetricsScrapeAllocCeiling: a /metrics scrape renders the node's whole
// exposition with strconv appends into the one buffer the registry keeps, so
// the rendering allocates nothing once that buffer has grown; what is left
// is the series' own reads. The node has a ring, a large-object tier and
// resource controls, so every family nakikad exports with -rpc is rendered.
func TestMetricsScrapeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the ceilings are measured without the race detector")
	}
	n := newTestNode(t, "edge-1", newMemOrigin(), func(cfg *Config) {
		cfg.Ring = overlay.NewRing()
		cfg.EnableResources = true
		lobConfig(4096, 10_000)(cfg)
	})
	reg := n.Metrics()
	scrape := func() {
		if err := reg.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, scrape)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scrape()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured on go1.24 amd64: 1 allocation of 16 B, the overlay's view
	// digest listing the ring's members; the ceiling. Rendering with one
	// fmt.Fprintf per line cost 727 allocations and 12 008 B.
	t.Logf("a scrape allocates %.0f times, %d B", allocs, bytes)
	if allocs > 1 || bytes > 16 {
		t.Errorf("a scrape allocates %.0f times and %d B, ceiling 1 and 16 B", allocs, bytes)
	}
}

// TestAdminScrapeAllocCeiling: the admin port's /metrics handler copies the
// registry's rendering into one body of its own length, which the
// allocator's size classes round up by at most an eighth; the other five
// allocations are the reply around it and the overlay's view digest.
// Measured on go1.24 amd64: 6 allocations and 18 713 B for a 17 112-byte
// exposition. Copying it into a bytes.Buffer grown from empty took 7.
func TestAdminScrapeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the ceilings are measured without the race detector")
	}
	n := newTestNode(t, "edge-1", newMemOrigin(), func(cfg *Config) {
		cfg.Ring = overlay.NewRing()
		cfg.EnableResources = true
		lobConfig(4096, 10_000)(cfg)
	})
	handle := admin.NewHandler(n)
	req := httpmsg.MustRequest("GET", "http://admin.example.org/metrics")
	var body int
	scrape := func() { body = len(handle(req).Body) }
	scrape()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, scrape)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scrape()
	}
	runtime.ReadMemStats(&after)
	bytes := int((after.TotalAlloc - before.TotalAlloc) / runs)
	t.Logf("a %d-byte scrape allocates %.0f times, %d B", body, allocs, bytes)
	if ceiling := body + body/8 + 512; allocs > 6 || bytes > ceiling {
		t.Errorf("a %d-byte scrape allocates %.0f times and %d B, ceiling 6 and %d B", body, allocs, bytes, ceiling)
	}
}
