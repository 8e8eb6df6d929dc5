package metrics

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Int64
	r.CounterFunc("nakika_test_total", "test counter", Labels{"tier": "mem"}, func() float64 { return float64(c.Load()) })
	r.GaugeFunc("nakika_test_gauge", "test gauge", nil, func() float64 { return float64(g.Load()) })
	c.Add(5)
	g.Store(7)
	g.Add(-2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE nakika_test_total counter",
		`nakika_test_total{tier="mem"} 5`,
		"nakika_test_gauge 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := ParseExposition(out); err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramSeries("nakika_req_seconds", "latency", Labels{"node": "n0"}, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-5.555) > 1e-9 {
		t.Fatalf("sum = %g, want 5.555", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`nakika_req_seconds_bucket{node="n0",le="0.01"} 1`,
		`nakika_req_seconds_bucket{node="n0",le="0.1"} 2`,
		`nakika_req_seconds_bucket{node="n0",le="1"} 3`,
		`nakika_req_seconds_bucket{node="n0",le="+Inf"} 4`,
		`nakika_req_seconds_count{node="n0"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	names, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if !names["nakika_req_seconds"] {
		t.Fatalf("histogram family name not reduced from suffixes: %v", names)
	}
}

// TestRegistryConcurrentIncrements is the registry race test: counters,
// gauges, and a histogram hammered from many goroutines while scrapes
// render concurrently. Run under -race in CI.
func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	var c, g atomic.Int64
	r.CounterFunc("c_total", "c", nil, func() float64 { return float64(c.Load()) })
	r.GaugeFunc("g", "g", nil, func() float64 { return float64(g.Load()) })
	h := r.NewHistogramSeries("h_seconds", "h", nil, DefBuckets)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if c.Load() != workers*per || g.Load() != workers*per {
		t.Fatalf("counter=%d gauge=%d, want %d", c.Load(), g.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count=%d, want %d", h.Count(), workers*per)
	}
}
