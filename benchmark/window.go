package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadConnections is the number of closed-loop client connections, and
// the GOMAXPROCS of the generator and of every child: the sandbox has two
// cores, and a generator with more runnable goroutines than cores would
// measure its own queueing.
const loadConnections = 2

// A window's wall-clock time is bounded, in multiples of the nominal run
// length: past windowBudgetFactor no further op is started, and an op
// still unanswered at windowFailFactor fails. The window is sized to take
// the nominal length at the rate the host usually gives; the budget is an
// emergency brake for the host's worst spells (14 times slower for a
// minute has been seen), in which a run is better short of ops than late
// or failed.
const (
	windowBudgetFactor = 5
	windowFailFactor   = 6
)

// sample is the outcome of one op.
type sample struct {
	ok          bool
	class       uint8
	totalMicros float64
	ttfbMicros  float64
	doneAt      float64 // seconds from the start of the window
}

// windowResult is everything the generator itself measured in one pass
// over an op sequence.
type windowResult struct {
	samples  []sample
	start    time.Time
	elapsed  time.Duration
	attempts int
	failed   int
	// firstFailure describes the first wrong response, for the report.
	firstFailure string
}

// target maps a connection index to the node address it drives: with one
// node both connections share it; with several, connection i drives node
// i, so state_rw reads and writes enter at edge-1 and edge-2 and reach
// edge-3 only through the cluster transport.
func target(httpAddrs []string, conn int) string {
	return httpAddrs[conn%len(httpAddrs)]
}

// load says how an op sequence is driven.
type load struct {
	// conns is the number of closed-loop connections.
	conns int
	// failAfter bounds the wall-clock time: ops not started by then count
	// as failed (the program hung, or became several times slower).
	failAfter time.Duration
	// stopAfter, when set, is the time budget: no op is started after it,
	// and the rest of the sequence is not attempted at all.
	stopAfter time.Duration
	// before, when set, is called just before op i is sent, on the
	// goroutine of the connection that sends it (the traced pass switches
	// its recorder there; the measured window reads the nodes' resident
	// set at every hundredth of the sequence).
	before func(i int)
}

// runOps drives reqs (rendered ops) in a closed loop: each connection
// takes the next index from a shared counter, so the sequence is fixed
// while its split over connections follows their speed.
func runOps(httpAddrs []string, ops []op, reqs [][]byte, l load) (windowResult, error) {
	res := windowResult{samples: make([]sample, len(ops))}
	clients := make([]*clientConn, l.conns)
	for i := range clients {
		cc, err := dialClient(target(httpAddrs, i))
		if err != nil {
			return res, err
		}
		defer cc.close()
		clients[i] = cc
	}
	var next atomic.Int64
	var failMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	deadline := start.Add(l.failAfter)
	for _, cc := range clients {
		wg.Add(1)
		go func(cc *clientConn) {
			defer wg.Done()
			for {
				if l.stopAfter > 0 && time.Since(start) > l.stopAfter {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &res.samples[i]
				s.class = ops[i].class
				if time.Now().After(deadline) {
					continue // unfinished: stays !ok
				}
				if l.before != nil {
					l.before(i)
				}
				status, body, ttfb, total, err := cc.do(reqs[i], deadline)
				s.doneAt = time.Since(start).Seconds()
				s.ok = err == nil && ops[i].check(status, body)
				s.totalMicros = float64(total) / float64(time.Microsecond)
				s.ttfbMicros = float64(ttfb) / float64(time.Microsecond)
				if !s.ok {
					failMu.Lock()
					if res.firstFailure == "" {
						res.firstFailure = describeFailure(ops[i], status, body, err)
					}
					failMu.Unlock()
				}
			}
		}(cc)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	// The ops taken form a prefix of the sequence.
	res.attempts = min(int(next.Load()), len(ops))
	res.samples = res.samples[:res.attempts]
	for i := range res.samples {
		if !res.samples[i].ok {
			res.failed++
		}
	}
	return res, nil
}

func describeFailure(o op, status int, body []byte, err error) string {
	if err != nil {
		return fmt.Sprintf("GET %s: %v", o.target, err)
	}
	preview := body
	if len(preview) > 80 {
		preview = preview[:80]
	}
	return fmt.Sprintf("GET %s: status %d (want %d), %d bytes (want %d), body starts %q",
		o.target, status, o.wantStatus, len(body), o.wantLen, preview)
}

// renderAll renders every op once for the origin host, outside any timed
// region.
func renderAll(ops []op, originHost string) [][]byte {
	reqs := make([][]byte, len(ops))
	for i, o := range ops {
		reqs[i] = o.render(originHost)
	}
	return reqs
}

// rateSlices is the number of equal-op-count slices a window is cut into
// for req_per_s: the median of their rates is reported, so a stall that
// falls in one or two slices spoils those and not the figure.
const rateSlices = 5

// sliceRates cuts a window's correct responses, in completion order, into
// rateSlices slices of equal count and returns each slice's completion
// rate (responses per second). A window with fewer correct responses than
// slices has one slice: the whole window.
func sliceRates(res windowResult) []float64 {
	var doneAt []float64
	for _, s := range res.samples {
		if s.ok {
			doneAt = append(doneAt, s.doneAt)
		}
	}
	sort.Float64s(doneAt)
	if len(doneAt) == 0 {
		return nil
	}
	n := rateSlices
	if len(doneAt) < n {
		n = 1
	}
	rates := make([]float64, 0, n)
	prevCount, prevT := 0, 0.0
	for k := 1; k <= n; k++ {
		count := k * len(doneAt) / n
		t := doneAt[count-1]
		if t > prevT {
			rates = append(rates, float64(count-prevCount)/(t-prevT))
		}
		prevCount, prevT = count, t
	}
	return rates
}

// summary holds what the generator itself measured over a window. Only
// correct responses contribute latency and throughput samples; failures
// are reported as a count against attempts.
type summary struct {
	attempted, failed int
	firstFailure      string
	elapsed           time.Duration
	// count is the number of correct responses, the samples behind every
	// latency figure.
	count int
	// reqPerSec is the median of the slice rates; the latencies are over
	// every correct response of the window.
	reqPerSec, p50, p90, ttfbP50 float64
	p99, p999, max               float64
	classP50                     []float64
	classShare                   []float64
	highestSupportedPercentile   float64
	highestSupportedPercentileUS float64
}

func summarize(res windowResult, classes int) summary {
	sum := summary{attempted: res.attempts, failed: res.failed, firstFailure: res.firstFailure, elapsed: res.elapsed}
	var total, ttfb []float64
	perClass := make([][]float64, classes)
	classCount := make([]int, classes)
	for _, s := range res.samples {
		if int(s.class) < classes {
			classCount[s.class]++
		}
		if !s.ok {
			continue
		}
		total = append(total, s.totalMicros)
		ttfb = append(ttfb, s.ttfbMicros)
		if int(s.class) < classes {
			perClass[s.class] = append(perClass[s.class], s.totalMicros)
		}
	}
	asc := sorted(total)
	sum.count = len(asc)
	sum.reqPerSec = median(sliceRates(res))
	sum.p50, sum.p90, sum.ttfbP50 = quantile(asc, 0.50), quantile(asc, 0.90), quantile(sorted(ttfb), 0.50)
	sum.p99, sum.p999 = quantile(asc, 0.99), quantile(asc, 0.999)
	if len(asc) > 0 {
		sum.max = asc[len(asc)-1]
	}
	sum.highestSupportedPercentile = highestSupported(len(asc))
	sum.highestSupportedPercentileUS = quantile(asc, sum.highestSupportedPercentile)
	for c := range perClass {
		sum.classP50 = append(sum.classP50, quantile(sorted(perClass[c]), 0.50))
		share := 0.0
		if sum.attempted > 0 {
			share = float64(classCount[c]) / float64(sum.attempted)
		}
		sum.classShare = append(sum.classShare, share)
	}
	return sum
}
