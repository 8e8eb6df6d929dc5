package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(asc, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// The highest percentile that may be quoted is the one with at least ten
// samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// req_per_s is the median rate of five slices of equal response count:
// a stall spoils the slice it falls in and not the figure, and failed
// responses are in no slice.
func TestSliceMedianRateIgnoresAStall(t *testing.T) {
	var res windowResult
	now := 0.0
	for i := 0; i < 3000; i++ {
		now += 0.001
		latency := 100.0 + float64(i%10)
		if i >= 1400 && i < 1500 {
			now += 0.005 // a neighbour has the core for half a second
			latency += 5000
		}
		res.samples = append(res.samples, sample{ok: true, totalMicros: latency, ttfbMicros: latency / 2, doneAt: now})
	}
	res.attempts = len(res.samples)
	res.elapsed = time.Duration(now * float64(time.Second))
	rates := sliceRates(res)
	if len(rates) != rateSlices {
		t.Fatalf("got %d slices, want %d", len(rates), rateSlices)
	}
	// 600 responses per slice; the third holds the 0.5 s stall.
	for k, want := range []float64{1000, 1000, 600 / 1.1, 1000, 1000} {
		if math.Abs(rates[k]-want) > 1e-6*want {
			t.Errorf("slice %d: %g responses/s, want %g", k, rates[k], want)
		}
	}
	sum := summarize(res, 0)
	if math.Abs(sum.reqPerSec-1000) > 1e-3 {
		t.Errorf("req_per_s %g, want 1000: the median slice has no stall", sum.reqPerSec)
	}
	if sum.p50 != 105 || sum.p90 != 109 || sum.ttfbP50 != 52.5 || sum.count != 3000 {
		t.Errorf("p50 %g p90 %g ttfb %g count %d; want 105, 109, 52.5, 3000", sum.p50, sum.p90, sum.ttfbP50, sum.count)
	}

	res.samples[0].ok = false
	res.failed = 1
	if sum := summarize(res, 0); sum.count != 2999 || sum.failed != 1 {
		t.Errorf("with one failure: count %d, failed %d; want 2999, 1", sum.count, sum.failed)
	}
	// Fewer correct responses than slices: one slice, the whole window.
	few := windowResult{samples: []sample{{ok: true, doneAt: 0.5}, {ok: true, doneAt: 1}}, attempts: 2}
	if rates := sliceRates(few); len(rates) != 1 || !near(rates[0], 2) {
		t.Errorf("two responses in 1 s: rates %v, want [2]", rates)
	}
	if rates := sliceRates(windowResult{}); rates != nil {
		t.Errorf("no responses: rates %v, want none", rates)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance check computes spreads from.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(3 1 4 1 5) = %g %g %g, want 1 3 4.5", q1, q2, q3)
	}
}
