// Package simnet provides the wide-area substrate for the evaluation: a
// deterministic discrete-event simulator of closed-loop clients, queueing
// stations (origin servers, edge proxies), and network links with latency
// and bandwidth limits.
//
// The paper's wide-area experiments ran on PlanetLab; this repository has no
// testbed, so (per the substitution rule in DESIGN.md) experiments measure
// real Na Kika code for the processing costs and use this simulator to
// compose those costs with network delays, transfer times, and server
// queueing — which is what produces the 60-second single-server latencies in
// Figure 7 when 240 clients hammer one origin across a WAN.
package simnet

import (
	"math/rand"
	"sort"
	"time"
)

// Link models a network path with one-way latency and a bandwidth cap.
type Link struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; zero means unlimited
}

// TransferTime returns the time to move size bytes across the link (latency
// plus serialization at the bandwidth cap).
func (l Link) TransferTime(size int) time.Duration {
	d := l.Latency
	if l.Bandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Station is a queueing resource with a fixed number of servers (for
// example an origin web server with a worker pool, or an edge proxy).
type Station struct {
	Name    string
	Servers int

	busy  int
	queue []*jobVisit
}

// Visit is one step of a job's route: a network delay (latency + transfer)
// followed by service demand at a station. Station may be nil for a pure
// delay (for example the final transfer back to the client).
type Visit struct {
	Delay   time.Duration
	Station *Station
	Service time.Duration
}

// Route generates the visit sequence for one job; it is called at job start
// so routes can depend on simulated time (for example cache warm-up) and on
// the client identity.
type Route func(client, iteration int, now time.Duration, rng *rand.Rand) []Visit

// JobResult records one completed job.
type JobResult struct {
	Client  int
	Start   time.Duration
	End     time.Duration
	Latency time.Duration
	Bytes   int
	Tag     string
}

// Simulation is a closed-network discrete-event simulation: Clients clients
// each repeatedly wait ThinkTime, then issue a job whose route is produced
// by Route.
type Simulation struct {
	clients int
	think   time.Duration
	route   Route
	rng     *rand.Rand

	loop    *Loop
	now     time.Duration // the loop's clock while an event runs
	results []JobResult
	// TagFn, when non-nil, labels each job result (for example "html" or
	// "video") so experiments can split distributions.
	TagFn func(client, iteration int) (tag string, bytes int)
}

// New returns an empty simulation seeded deterministically.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Station adds a queueing station with the given parallelism.
func (s *Simulation) Station(name string, servers int) *Station {
	if servers <= 0 {
		servers = 1
	}
	return &Station{Name: name, Servers: servers}
}

// SetClients configures the closed client population: count clients, each
// thinking for think between jobs, issuing jobs routed by route.
func (s *Simulation) SetClients(count int, think time.Duration, route Route) {
	s.clients = count
	s.think = think
	s.route = route
}

type jobVisit struct {
	client    int
	iteration int
	start     time.Duration
	visits    []Visit
	idx       int
}

// at schedules fn on the simulation's agenda at virtual time t; the
// simulation's clock reads t while fn runs.
func (s *Simulation) at(t time.Duration, fn func()) {
	s.loop.At(t, func(now time.Duration) {
		s.now = now
		fn()
	})
}

// startJob schedules jv's start at virtual time t: its route is drawn then.
func (s *Simulation) startJob(t time.Duration, jv *jobVisit) {
	s.at(t, func() {
		jv.start = s.now
		jv.visits = s.route(jv.client, jv.iteration, s.now, s.rng)
		jv.idx = 0
		s.advance(jv)
	})
}

// serve schedules the end of jv's service at st.
func (s *Simulation) serve(jv *jobVisit, st *Station) {
	s.at(s.now+jv.visits[jv.idx].Service, func() { s.finishService(jv, st) })
}

// Run executes the simulation for the given virtual duration and returns
// the completed job results.
func (s *Simulation) Run(duration time.Duration) []JobResult {
	s.now = 0
	s.loop = NewLoop()
	s.results = s.results[:0]
	// Stagger client start times across one think interval to avoid a
	// synchronized stampede at t=0.
	for c := 0; c < s.clients; c++ {
		offset := time.Duration(0)
		if s.think > 0 {
			offset = time.Duration(s.rng.Int63n(int64(s.think) + 1))
		} else {
			offset = time.Duration(s.rng.Int63n(int64(10 * time.Millisecond)))
		}
		s.startJob(offset, &jobVisit{client: c, iteration: 0})
	}
	s.loop.AdvanceTo(duration)
	return append([]JobResult(nil), s.results...)
}

// advance moves a job to its next visit (applying the visit's network delay)
// or completes it.
func (s *Simulation) advance(jv *jobVisit) {
	if jv.idx >= len(jv.visits) {
		s.completeJob(jv)
		return
	}
	v := jv.visits[jv.idx]
	st := v.Station
	if st == nil {
		// Pure delay visit.
		jv.idx++
	}
	s.at(s.now+v.Delay, func() { s.arriveAtStation(jv, st) })
}

func (s *Simulation) arriveAtStation(jv *jobVisit, st *Station) {
	if st == nil {
		// Delay-only visit completed; continue the route.
		s.advance(jv)
		return
	}
	if st.busy < st.Servers {
		st.busy++
		s.serve(jv, st)
	} else {
		st.queue = append(st.queue, jv)
	}
}

func (s *Simulation) finishService(jv *jobVisit, st *Station) {
	st.busy--
	if len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = st.queue[1:]
		st.busy++
		s.serve(next, st)
	}
	jv.idx++
	s.advance(jv)
}

func (s *Simulation) completeJob(jv *jobVisit) {
	res := JobResult{Client: jv.client, Start: jv.start, End: s.now, Latency: s.now - jv.start}
	if s.TagFn != nil {
		res.Tag, res.Bytes = s.TagFn(jv.client, jv.iteration)
	}
	s.results = append(s.results, res)
	// Closed loop: think, then next job.
	s.startJob(s.now+s.think, &jobVisit{client: jv.client, iteration: jv.iteration + 1})
}

// ---------------------------------------------------------------------------
// Result analysis helpers
// ---------------------------------------------------------------------------

// Latencies extracts the latency values from results, optionally filtered by
// tag ("" means all).
func Latencies(results []JobResult, tag string) []time.Duration {
	var out []time.Duration
	for _, r := range results {
		if tag == "" || r.Tag == tag {
			out = append(out, r.Latency)
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of the latency set.
func Percentile(latencies []time.Duration, p float64) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the mean latency.
func Mean(latencies []time.Duration) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	return total / time.Duration(len(latencies))
}

// CDF returns (latency, cumulative fraction) pairs at the given probe
// points, suitable for regenerating Figure 7's curves.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF computes the empirical CDF of the latency set sampled at n evenly
// spaced fractions.
func CDF(latencies []time.Duration, n int) []CDFPoint {
	if len(latencies) == 0 || n <= 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		idx := int(frac*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out = append(out, CDFPoint{Latency: sorted[idx], Fraction: frac})
	}
	return out
}

// FractionAbove returns the fraction of results (filtered by tag) whose
// effective bandwidth bytes/latency is at least minBytesPerSec — used for
// the "fraction of accesses seeing at least 140 Kbps" video metric.
func FractionAbove(results []JobResult, tag string, minBytesPerSec float64) float64 {
	count, ok := 0, 0
	for _, r := range results {
		if tag != "" && r.Tag != tag {
			continue
		}
		count++
		if r.Latency <= 0 {
			ok++
			continue
		}
		bw := float64(r.Bytes) / r.Latency.Seconds()
		if bw >= minBytesPerSec {
			ok++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(ok) / float64(count)
}
