// Package resource implements Na Kika's congestion-based resource controls
// (Section 3.2 and Figure 6 of the paper).
//
// Rather than enforcing a-priori quotas, a resource manager tracks CPU,
// memory, and bandwidth consumption as well as running time and total bytes
// transferred for each site's pipelines (plus overall consumption for the
// node). If any resource is overutilized, the manager throttles requests
// proportionally to a site's contribution to congestion and, if congestion
// persists for another control interval, terminates the pipelines of the
// largest contributor. A site's contribution is a weighted average of past
// and present consumption and is exposed to scripts so they can adapt to
// congestion and recover from past penalization.
package resource

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind identifies a tracked resource.
type Kind int

// Tracked resources. CPU, memory, and bandwidth are renewable: only
// consumption under overutilization counts toward a site's congestion
// contribution. Running time and total bytes transferred are nonrenewable:
// all consumption counts.
const (
	CPU Kind = iota
	Memory
	Bandwidth
	RunningTime
	BytesTransferred
	numKinds
)

// Kinds lists every tracked resource.
var Kinds = []Kind{CPU, Memory, Bandwidth, RunningTime, BytesTransferred}

func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Bandwidth:
		return "bandwidth"
	case RunningTime:
		return "running-time"
	case BytesTransferred:
		return "bytes-transferred"
	default:
		return "unknown"
	}
}

// Renewable reports whether k is a renewable resource.
func (k Kind) Renewable() bool {
	return k == CPU || k == Memory || k == Bandwidth
}

// Config controls the resource manager.
type Config struct {
	// Capacity is the per-control-interval capacity for each resource; a
	// resource with zero capacity is never considered congested.
	Capacity map[Kind]float64
	// CongestionThreshold is the fraction of capacity above which a resource
	// counts as congested; zero means 0.9.
	CongestionThreshold float64
	// DecayFactor is the weight given to past consumption in the weighted
	// average (0..1); zero means 0.5.
	DecayFactor float64
	// ControlInterval is how often the CONTROL procedure runs per resource;
	// zero means 250 ms. It also is the Figure 6 WAIT timeout: throttling
	// gets one interval to take effect before termination.
	ControlInterval time.Duration
	// MinThrottleShare is the smallest congestion share that triggers
	// throttling for a site; zero means 0.05 (5%).
	MinThrottleShare float64
	// Rand is the random source for probabilistic throttling; nil means a
	// fixed-seed source (deterministic tests).
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.Capacity == nil {
		c.Capacity = map[Kind]float64{}
	}
	if c.CongestionThreshold <= 0 {
		c.CongestionThreshold = 0.9
	}
	if c.DecayFactor <= 0 || c.DecayFactor >= 1 {
		c.DecayFactor = 0.5
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 250 * time.Millisecond
	}
	if c.MinThrottleShare <= 0 {
		c.MinThrottleShare = 0.05
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Stats summarizes manager activity; the resource-control benchmarks report
// these alongside throughput.
type Stats struct {
	Admitted     int64
	Throttled    int64
	Terminations int64
	ControlRuns  int64
}

// siteState tracks one site's consumption.
type siteState struct {
	// window accumulates consumption since the last control run.
	window [numKinds]float64
	// usage is the weighted average congestion contribution per resource
	// (UPDATE in Figure 6).
	usage [numKinds]float64
	// throttleProb is the probability an incoming request for this site is
	// rejected with a server-busy error.
	throttleProb float64
	// terminators are callbacks that kill this site's active pipelines.
	terminators map[int64]func()
}

// Manager is the per-node resource manager.
type Manager struct {
	mu      sync.Mutex
	cfg     Config
	enabled bool
	sites   map[string]*siteState
	nextID  int64
	stats   Stats
	// pendingKill holds, per resource, the priority queue built during the
	// previous control run for that resource (Figure 6 defers termination by
	// one WAIT interval).
	pendingKill map[Kind][]string
}

// NewManager returns an enabled resource manager.
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg:         cfg.withDefaults(),
		enabled:     true,
		sites:       make(map[string]*siteState),
		pendingKill: make(map[Kind][]string),
	}
}

// SetEnabled turns resource controls on or off; the micro-benchmarks in
// Section 5.1 compare both settings.
func (m *Manager) SetEnabled(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enabled = on
	if !on {
		for _, s := range m.sites {
			s.throttleProb = 0
		}
	}
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) site(name string) *siteState {
	s, ok := m.sites[name]
	if !ok {
		s = &siteState{terminators: make(map[int64]func())}
		m.sites[name] = s
	}
	return s
}

// Charge records consumption of amount units of resource kind by site.
func (m *Manager) Charge(site string, kind Kind, amount float64) {
	if amount <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.site(site).window[kind] += amount
}

// RegisterPipeline registers a termination callback for an active pipeline
// belonging to site and returns a handle to unregister it. The manager calls
// the callback when it decides to terminate the site's pipelines.
func (m *Manager) RegisterPipeline(site string, terminate func()) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := m.nextID
	m.site(site).terminators[id] = terminate
	return id
}

// UnregisterPipeline removes a previously registered pipeline.
func (m *Manager) UnregisterPipeline(site string, id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.sites[site]; ok {
		delete(s.terminators, id)
	}
}

// Admit decides whether a new request for site should be accepted. When the
// site is being throttled, requests are rejected probabilistically in
// proportion to the site's contribution to congestion (the server-busy flag
// the monitoring process sets in the prototype).
func (m *Manager) Admit(site string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.enabled {
		m.stats.Admitted++
		return true
	}
	s := m.site(site)
	if s.throttleProb > 0 && m.cfg.Rand.Float64() < s.throttleProb {
		m.stats.Throttled++
		return false
	}
	m.stats.Admitted++
	return true
}

// Usage returns site's weighted-average congestion contribution for kind,
// normalized to the resource capacity (0 means idle, 1 means consuming the
// full capacity). This is the value exposed to scripts so they can adapt to
// congestion.
func (m *Manager) Usage(site string, kind Kind) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sites[site]
	if !ok {
		return 0
	}
	cap := m.cfg.Capacity[kind]
	if cap <= 0 {
		return 0
	}
	return s.usage[kind] / cap
}

// ControlOnce runs one round of the Figure 6 CONTROL procedure for every
// tracked resource. The paper's WAIT(TIMEOUT) between throttling and
// termination is realized by deferring the kill decision to the next call:
// if a resource was congested on the previous round, is still congested now,
// and throttling did not relieve it, the largest contributor's pipelines are
// terminated.
func (m *Manager) ControlOnce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.enabled {
		// Still end the round, so re-enabling starts from a clean slate.
		m.endRoundLocked()
		return
	}
	m.stats.ControlRuns++

	for _, kind := range Kinds {
		congested := m.isCongestedLocked(kind)
		prevQueue, hadPrev := m.pendingKill[kind]
		delete(m.pendingKill, kind)

		switch {
		case congested:
			// Throttle shares must be computed before this round's
			// termination wipes the top offender's usage: otherwise an
			// innocent site inherits ~100% of the "share" of congestion the
			// offender caused and gets throttled in its place.
			queue := m.activeSitesByUsageLocked(kind)
			total := 0.0
			for _, name := range queue {
				s := m.sites[name]
				m.updateUsageLocked(s, kind)
				total += s.usage[kind]
			}
			for _, name := range queue {
				s := m.sites[name]
				share := 0.0
				if total > 0 {
					share = s.usage[kind] / total
				}
				if share >= m.cfg.MinThrottleShare {
					// Throttle proportionally to the site's contribution.
					if share > s.throttleProb {
						s.throttleProb = share
					}
				}
			}
			m.pendingKill[kind] = queue
		case !kind.Renewable():
			// Track nonrenewable usage even without congestion.
			for _, s := range m.sites {
				m.updateUsageLocked(s, kind)
			}
		default:
			// Renewable and not congested: decay past usage so sites recover
			// from past penalization.
			for _, s := range m.sites {
				s.usage[kind] *= m.cfg.DecayFactor
			}
		}

		// Termination check for the queue built during the previous round
		// (after throttling has had one interval to take effect). This runs
		// after the share update above so the kill's usage amnesty cannot
		// skew this round's throttle proportions.
		if hadPrev {
			if congested && len(prevQueue) > 0 {
				m.terminateLocked(prevQueue[0])
			}
			if !congested {
				m.unthrottleLocked()
			}
		}
	}

	m.endRoundLocked()
}

// endRoundLocked resets every site's window for the next interval and drops
// the sites left with nothing for the manager to act on — no live pipeline,
// no throttle and no usage — so the table holds the sites that are active,
// not one entry for every Host header ever seen. Caller holds m.mu.
func (m *Manager) endRoundLocked() {
	for name, s := range m.sites {
		s.window = [numKinds]float64{}
		if len(s.terminators) == 0 && s.throttleProb == 0 && s.usage == [numKinds]float64{} {
			delete(m.sites, name)
		}
	}
}

// Run executes ControlOnce every ControlInterval until ctx is cancelled.
func (m *Manager) Run(ctx context.Context) {
	ticker := time.NewTicker(m.cfg.ControlInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.ControlOnce()
		}
	}
}

// isCongestedLocked reports whether total windowed consumption of kind
// exceeds the congestion threshold.
func (m *Manager) isCongestedLocked(kind Kind) bool {
	capacity := m.cfg.Capacity[kind]
	if capacity <= 0 {
		return false
	}
	total := 0.0
	for _, s := range m.sites {
		total += s.window[kind]
	}
	return total > capacity*m.cfg.CongestionThreshold
}

// updateUsageLocked folds the current window into the weighted average
// (UPDATE in Figure 6).
func (m *Manager) updateUsageLocked(s *siteState, kind Kind) {
	d := m.cfg.DecayFactor
	s.usage[kind] = d*s.usage[kind] + (1-d)*s.window[kind]
}

// activeSitesByUsageLocked returns site names ordered by descending windowed
// consumption of kind (the priority queue in Figure 6: the head is the top
// offender).
func (m *Manager) activeSitesByUsageLocked(kind Kind) []string {
	names := make([]string, 0, len(m.sites))
	for name, s := range m.sites {
		if s.window[kind] > 0 || s.usage[kind] > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := m.sites[names[i]], m.sites[names[j]]
		if a.window[kind] != b.window[kind] {
			return a.window[kind] > b.window[kind]
		}
		if a.usage[kind] != b.usage[kind] {
			return a.usage[kind] > b.usage[kind]
		}
		return names[i] < names[j]
	})
	return names
}

// terminateLocked kills every registered pipeline for site and clears its
// throttle so fresh requests are admitted again afterwards.
func (m *Manager) terminateLocked(site string) {
	s, ok := m.sites[site]
	if !ok {
		return
	}
	for id, kill := range s.terminators {
		// Run callbacks outside the critical section? They are expected to
		// be quick flag-sets (Context.Terminate), so invoking them inline
		// keeps the control procedure simple.
		kill()
		delete(s.terminators, id)
	}
	s.window = [numKinds]float64{}
	s.usage = [numKinds]float64{}
	m.stats.Terminations++
}

// unthrottleLocked restores normal operation for every site (UNTHROTTLE in
// Figure 6).
func (m *Manager) unthrottleLocked() {
	for _, s := range m.sites {
		s.throttleProb = 0
	}
}
