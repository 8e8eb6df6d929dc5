package core

import (
	"io"
	"runtime"
	"testing"

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
