package bench

import "testing"

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestWarmProxyHitAllocBudget holds the warm proxy hit to what it allocates,
// with the observability plane on (what every node runs) and off
// (Config.NoObserve), and the plane to its price. It runs the metrics
// experiment, so the ceilings and that experiment's report are one
// measurement. Each ceiling is the count measured on go1.24 amd64, truncated
// to whole allocations and whole bytes per hit, so one more allocation, or
// one more byte, fails. Another toolchain may move them; then the test says
// by how much.
func TestWarmProxyHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries on purpose, so pooled objects are reallocated")
	}
	r, err := RunMetricsCost()
	if err != nil {
		t.Fatal(err)
	}
	type cost struct{ allocs, bytes int64 }
	whole := func(p ProxyAllocs) cost { return cost{int64(p.AllocsPerOp), int64(p.BytesPerOp)} }
	on, off := whole(r.Enabled), whole(r.Disabled)
	for _, c := range []struct {
		name    string
		got     cost
		ceiling cost
	}{
		{"plane on", on, cost{11, 1700}},
		{"plane off", off, cost{10, 1444}},
		{"the plane's price", cost{on.allocs - off.allocs, on.bytes - off.bytes}, cost{1, 256}},
	} {
		if c.got.allocs > c.ceiling.allocs || c.got.bytes > c.ceiling.bytes {
			t.Errorf("warm proxy hit, %s: %d allocs and %d B per op, ceiling %d and %d B",
				c.name, c.got.allocs, c.got.bytes, c.ceiling.allocs, c.ceiling.bytes)
		}
	}
}
