// Package loadview implements the cluster-wide load accounting that backs
// request offload and hedged replica reads: each node meters its own load
// as a cheap exponentially-decayed score, piggybacks the score on overlay
// maintenance RPCs so peers hold a fresh load view of their successors and
// predecessors, and keeps a per-peer EWMA of RPC round-trip times that the
// read path turns into hedge budgets.
//
// Everything in this package is driven by the clock its owner passes in (the
// node's clock: wall time in production, the simulated network's virtual
// clock under the deterministic cluster harness), so load decay, view
// freshness, and RTT estimates are bit-identical across seeded simulation
// runs.
package loadview

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// DefaultHalfLife is the decay half-life of the work component of a load
// score when the owner does not configure one.
const DefaultHalfLife = 2 * time.Second

// Meter tracks one node's own load: the instantaneous number of in-flight
// requests (which doubles as the queue depth in this runtime — requests
// execute on their arrival goroutine, so every admitted-but-unfinished
// request is "queued" on a stage context) plus an exponentially-decayed
// accumulation of recently completed work. The work of a request defaults
// to 1 and callers may weight it by a CPU-equivalent (the resource
// controller's congestion share), so a node grinding through expensive
// pipelines reports hotter than one serving cache hits at the same rate.
type Meter struct {
	clock    func() time.Duration
	halfLife time.Duration

	mu       sync.Mutex
	inflight int
	work     float64
	last     time.Duration
}

// NewMeter returns a meter decaying on the given clock; a zero halfLife
// means DefaultHalfLife.
func NewMeter(clock func() time.Duration, halfLife time.Duration) *Meter {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Meter{clock: clock, halfLife: halfLife}
}

// decayLocked folds elapsed time into the work accumulator. Caller holds
// m.mu.
func (m *Meter) decayLocked(now time.Duration) {
	if now > m.last && m.work > 0 {
		m.work *= math.Exp2(-float64(now-m.last) / float64(m.halfLife))
	}
	if now > m.last {
		m.last = now
	}
}

// Begin records one request entering execution.
func (m *Meter) Begin() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// End records one request leaving execution, folding its cost (1 for a
// plain request, more for a CPU-heavy one) into the decayed work score.
func (m *Meter) End(cost float64) {
	if cost < 0 {
		cost = 0
	}
	m.mu.Lock()
	m.decayLocked(m.clock())
	m.inflight--
	if m.inflight < 0 {
		m.inflight = 0
	}
	m.work += cost
	m.mu.Unlock()
}

// Score returns the node's current load score: in-flight requests plus the
// decayed recent work. Idle nodes decay toward zero without needing any
// event to fire.
func (m *Meter) Score() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decayLocked(m.clock())
	return float64(m.inflight) + m.work
}

// FormatScore renders a load score for the wire (piggybacked on overlay
// maintenance RPCs and offload replies). The 'g'/-1 encoding round-trips
// float64 exactly, keeping simulated runs deterministic.
func FormatScore(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// ParseScore parses a wire-format load score; ok is false for absent or
// malformed values (older peers that do not gossip load).
func ParseScore(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// View is a node's last-known load score for each peer, fed by gossip
// observations (overlay maintenance replies, offload replies). Scores are
// timestamped so fresher observations always win and so callers can treat
// a score as decayed between observations with the same half-life peers
// use locally — a peer that went quiet reads progressively cooler instead
// of being pinned at its last hot sample.
type View struct {
	clock    func() time.Duration
	halfLife time.Duration

	mu    sync.Mutex
	peers map[string]sample
}

type sample struct {
	score float64
	at    time.Duration
}

// NewView returns an empty view on the given clock (zero halfLife means
// DefaultHalfLife).
func NewView(clock func() time.Duration, halfLife time.Duration) *View {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &View{clock: clock, halfLife: halfLife, peers: make(map[string]sample)}
}

// Observe records peer's freshly reported load score.
func (v *View) Observe(peer string, score float64) {
	if peer == "" || math.IsNaN(score) || math.IsInf(score, 0) {
		return
	}
	v.mu.Lock()
	v.peers[peer] = sample{score: score, at: v.clock()}
	v.mu.Unlock()
}

// decayed applies the view's half-life to a sample's age. Caller holds
// v.mu.
func (v *View) decayed(s sample) float64 {
	now := v.clock()
	if now <= s.at || s.score <= 0 {
		return s.score
	}
	return s.score * math.Exp2(-float64(now-s.at)/float64(v.halfLife))
}

// LeastLoaded returns the candidate with the lowest decayed score, treating
// never-observed candidates as load 0. Ties break to the lexicographically
// smallest name so the choice is deterministic. ok is false only for an
// empty candidate list.
func (v *View) LeastLoaded(candidates []string) (name string, score float64, ok bool) {
	if len(candidates) == 0 {
		return "", 0, false
	}
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, c := range sorted {
		cur := 0.0
		if s, known := v.peers[c]; known {
			cur = v.decayed(s)
		}
		if i == 0 || cur < score {
			name, score = c, cur
		}
	}
	return name, score, true
}

// RTT keeps a per-peer exponentially-weighted moving average of RPC
// round-trip times. The hedged read path compares a replica's expected RTT
// against the hedge budget before committing a read to it.
type RTT struct {
	alpha float64

	mu    sync.Mutex
	peers map[string]time.Duration
}

// DefaultRTTAlpha weights fresh RTT observations; high enough that a peer
// turning slow is noticed within a few calls, low enough that one outlier
// does not swing the estimate.
const DefaultRTTAlpha = 0.3

// NewRTT returns an empty estimator (alpha <= 0 means DefaultRTTAlpha).
func NewRTT(alpha float64) *RTT {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultRTTAlpha
	}
	return &RTT{alpha: alpha, peers: make(map[string]time.Duration)}
}

// Observe folds one measured round trip to peer into its EWMA.
func (r *RTT) Observe(peer string, d time.Duration) {
	if peer == "" || d < 0 {
		return
	}
	r.mu.Lock()
	if cur, ok := r.peers[peer]; ok {
		r.peers[peer] = time.Duration(r.alpha*float64(d) + (1-r.alpha)*float64(cur))
	} else {
		r.peers[peer] = d
	}
	r.mu.Unlock()
}

// Expect returns the peer's estimated round-trip time; ok is false before
// the first observation (callers must not hedge on a guess).
func (r *RTT) Expect(peer string) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.peers[peer]
	return d, ok
}

// Slow returns, sorted, the peers whose estimate exceeds budget. A slow
// estimate is self-sealing on a read-only workload — the hedge path stops
// contacting the peer, so nothing retrains it — which is why maintenance
// loops re-probe exactly these peers out of band.
func (r *RTT) Slow(budget time.Duration) []string {
	r.mu.Lock()
	var out []string
	for peer, d := range r.peers {
		if d > budget {
			out = append(out, peer)
		}
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}
