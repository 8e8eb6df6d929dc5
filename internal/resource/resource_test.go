package resource

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// throttled reports whether site currently has a non-zero rejection
// probability.
func (m *Manager) throttled(site string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sites[site]
	return ok && s.throttleProb > 0
}

func managerWithCapacity(cpu float64) *Manager {
	return NewManager(Config{
		Capacity:            map[Kind]float64{CPU: cpu, Memory: 1 << 20, Bandwidth: 1 << 20},
		CongestionThreshold: 0.9,
		DecayFactor:         0.5,
	})
}

func TestKindProperties(t *testing.T) {
	if !CPU.Renewable() || !Memory.Renewable() || !Bandwidth.Renewable() {
		t.Error("CPU, memory, and bandwidth are renewable")
	}
	if RunningTime.Renewable() || BytesTransferred.Renewable() {
		t.Error("running time and bytes transferred are nonrenewable")
	}
	seen := map[string]bool{}
	for _, k := range Kinds {
		if seen[k.String()] {
			t.Errorf("duplicate kind name %q", k)
		}
		seen[k.String()] = true
	}
}

// TestSiteTableForgetsIdleSites: the table grows with the sites that are
// active, not with every Host header ever admitted. A site with no live
// pipeline, no throttle and no usage left is dropped at the end of a control
// round; one with a live pipeline or a decaying usage is kept.
func TestSiteTableForgetsIdleSites(t *testing.T) {
	m := managerWithCapacity(1000)
	for i := 0; i < 10_000; i++ {
		m.Admit(fmt.Sprintf("site-%d.example.org", i))
	}
	id := m.RegisterPipeline("busy.example.org", killFunc(func() {}))
	m.Charge("bytes.example.org", BytesTransferred, 100)
	m.ControlOnce()
	m.ControlOnce()
	sites := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.sites)
	}
	if got := sites(); got != 2 {
		t.Fatalf("site table after 10 000 admitted sites and two control rounds = %d entries, want the 2 still active", got)
	}
	m.UnregisterPipeline("busy.example.org", id)
	m.ControlOnce()
	if got := sites(); got != 1 {
		t.Errorf("site table with the pipeline gone = %d entries, want 1", got)
	}
}

func TestAdmitWithoutCongestion(t *testing.T) {
	m := managerWithCapacity(1000)
	for i := 0; i < 100; i++ {
		if !m.Admit("site-a") {
			t.Fatal("no congestion: every request should be admitted")
		}
	}
	if m.Stats().Admitted != 100 {
		t.Errorf("admitted = %d", m.Stats().Admitted)
	}
}

func TestThrottlingUnderCongestion(t *testing.T) {
	m := managerWithCapacity(100)
	// site-hog consumes far beyond capacity; site-small stays modest.
	m.Charge("site-hog", CPU, 500)
	m.Charge("site-small", CPU, 2)
	m.ControlOnce()
	if !m.throttled("site-hog") {
		t.Error("hog should be throttled under congestion")
	}
	if m.throttled("site-small") {
		t.Error("a site below the minimum share should not be throttled")
	}
	// Rejection rate for the hog should be high (share ~ 500/502).
	rejected := 0
	for i := 0; i < 1000; i++ {
		if !m.Admit("site-hog") {
			rejected++
		}
	}
	if rejected < 800 {
		t.Errorf("hog rejection count = %d / 1000, expected heavy throttling", rejected)
	}
	accepted := 0
	for i := 0; i < 1000; i++ {
		if m.Admit("site-small") {
			accepted++
		}
	}
	if accepted != 1000 {
		t.Errorf("small site accepted = %d / 1000, expected all", accepted)
	}
}

func TestThrottleProportionalToShare(t *testing.T) {
	m := managerWithCapacity(100)
	m.Charge("site-big", CPU, 300)
	m.Charge("site-medium", CPU, 100)
	m.ControlOnce()
	rejectRate := func(site string) float64 {
		rejected := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if !m.Admit(site) {
				rejected++
			}
		}
		return float64(rejected) / n
	}
	big, medium := rejectRate("site-big"), rejectRate("site-medium")
	if big <= medium {
		t.Errorf("throttling should be proportional to contribution: big=%.2f medium=%.2f", big, medium)
	}
}

func TestTerminationOfTopOffenderAfterPersistentCongestion(t *testing.T) {
	m := managerWithCapacity(100)
	var hogKilled, smallKilled atomic.Bool
	m.RegisterPipeline("site-hog", killFunc(func() { hogKilled.Store(true) }))
	m.RegisterPipeline("site-small", killFunc(func() { smallKilled.Store(true) }))

	// Round 1: congestion appears, sites get throttled, kill deferred.
	m.Charge("site-hog", CPU, 500)
	m.Charge("site-small", CPU, 50)
	m.ControlOnce()
	if hogKilled.Load() {
		t.Fatal("termination must wait one control interval (Figure 6 WAIT)")
	}
	// Round 2: congestion persists despite throttling → top offender killed.
	m.Charge("site-hog", CPU, 500)
	m.Charge("site-small", CPU, 50)
	m.ControlOnce()
	if !hogKilled.Load() {
		t.Error("top offender should be terminated after persistent congestion")
	}
	if smallKilled.Load() {
		t.Error("only the largest contributor should be terminated")
	}
	if m.Stats().Terminations == 0 {
		t.Error("termination counter should be non-zero")
	}
}

func TestUnthrottleWhenCongestionClears(t *testing.T) {
	m := managerWithCapacity(100)
	m.Charge("site-a", CPU, 500)
	m.ControlOnce()
	if !m.throttled("site-a") {
		t.Fatal("expected throttling")
	}
	// Next round with no load: congestion is gone, throttle lifted.
	m.ControlOnce()
	if m.throttled("site-a") {
		t.Error("throttle should be lifted when congestion clears")
	}
	var killed atomic.Bool
	m.RegisterPipeline("site-a", killFunc(func() { killed.Store(true) }))
	m.ControlOnce()
	if killed.Load() {
		t.Error("no termination should happen after congestion clears")
	}
}

func TestRecoveryFromPastPenalization(t *testing.T) {
	m := managerWithCapacity(100)
	m.Charge("site-a", CPU, 500)
	m.ControlOnce()
	first := m.Usage("site-a", CPU)
	if first <= 0 {
		t.Fatal("usage should be positive under congestion")
	}
	// Quiet rounds decay the weighted average so the site recovers.
	for i := 0; i < 6; i++ {
		m.ControlOnce()
	}
	if got := m.Usage("site-a", CPU); got >= first/4 {
		t.Errorf("usage should decay over quiet rounds: first=%.3f now=%.3f", first, got)
	}
}

func TestNonrenewableTrackedWithoutCongestion(t *testing.T) {
	m := NewManager(Config{Capacity: map[Kind]float64{BytesTransferred: 1 << 30}})
	m.Charge("site-a", BytesTransferred, 1000)
	m.ControlOnce()
	if m.Usage("site-a", BytesTransferred) <= 0 {
		t.Error("nonrenewable usage should be tracked even without congestion")
	}
}

func TestDisabledManagerAdmitsEverything(t *testing.T) {
	m := managerWithCapacity(10)
	m.SetEnabled(false)
	m.Charge("site-hog", CPU, 10000)
	m.ControlOnce()
	for i := 0; i < 100; i++ {
		if !m.Admit("site-hog") {
			t.Fatal("disabled manager must admit everything")
		}
	}
	if m.Stats().Throttled != 0 {
		t.Error("no throttling when disabled")
	}
	// Re-enabling starts clean.
	m.SetEnabled(true)
	if m.throttled("site-hog") {
		t.Error("re-enabled manager should start unthrottled")
	}
}

func TestUnregisterPipeline(t *testing.T) {
	m := managerWithCapacity(10)
	var killed atomic.Bool
	id := m.RegisterPipeline("site-a", killFunc(func() { killed.Store(true) }))
	m.UnregisterPipeline("site-a", id)
	// Force two congested rounds to trigger termination.
	m.Charge("site-a", CPU, 100)
	m.ControlOnce()
	m.Charge("site-a", CPU, 100)
	m.ControlOnce()
	if killed.Load() {
		t.Error("unregistered pipeline must not be killed")
	}
}

func TestZeroCapacityNeverCongested(t *testing.T) {
	m := NewManager(Config{Capacity: map[Kind]float64{}})
	m.Charge("site-a", CPU, 1e12)
	m.ControlOnce()
	if m.throttled("site-a") {
		t.Error("resources without configured capacity are never congested")
	}
}

func TestChargeIgnoresNonPositive(t *testing.T) {
	m := managerWithCapacity(100)
	m.Charge("site-a", CPU, 0)
	m.Charge("site-a", CPU, -5)
	m.ControlOnce()
	if len(m.sites) != 0 {
		t.Errorf("non-positive charges should not create site state: %v", m.sites)
	}
}

// Property: the manager never terminates a site that consumed strictly less
// than another active site, across randomized two-site load patterns.
func TestPropertyTerminationTargetsTopOffender(t *testing.T) {
	f := func(loadA, loadB uint16) bool {
		a, b := float64(loadA)+1, float64(loadB)+1
		if a == b {
			return true // ties may go either way
		}
		m := managerWithCapacity(1) // tiny capacity: always congested
		var killedA, killedB atomic.Bool
		m.RegisterPipeline("a", killFunc(func() { killedA.Store(true) }))
		m.RegisterPipeline("b", killFunc(func() { killedB.Store(true) }))
		for round := 0; round < 2; round++ {
			m.Charge("a", CPU, a)
			m.Charge("b", CPU, b)
			m.ControlOnce()
		}
		if a > b {
			return killedA.Load() && !killedB.Load()
		}
		return killedB.Load() && !killedA.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an idle site is never throttled, regardless of how much load
// other sites generate.
func TestPropertyIdleSiteNeverThrottled(t *testing.T) {
	f := func(load uint32) bool {
		m := managerWithCapacity(10)
		m.Charge("noisy", CPU, float64(load%100000)+1)
		m.Admit("idle") // creates the site entry without consumption
		m.ControlOnce()
		return !m.throttled("idle")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTerminationDoesNotShiftBlame(t *testing.T) {
	// Regression: termination zeroes the offender's usage as amnesty. When
	// that happened before the round's throttle-share update, an innocent
	// low-usage site inherited ~100% of the congestion share and was
	// throttled in the offender's place.
	m := managerWithCapacity(100)
	// Round 1: hog congests, innocent stays tiny. Hog gets throttled and
	// queued for termination.
	m.Charge("site-hog", CPU, 500)
	m.Charge("site-innocent", CPU, 2)
	m.ControlOnce()
	if !m.throttled("site-hog") || m.throttled("site-innocent") {
		t.Fatal("round 1: only the hog should be throttled")
	}
	// Round 2: still congested (the hog's in-flight work lands), so the
	// hog's pipelines are terminated. The innocent site must not pick up
	// the hog's congestion share.
	m.Charge("site-hog", CPU, 500)
	m.Charge("site-innocent", CPU, 2)
	m.ControlOnce()
	if m.Stats().Terminations == 0 {
		t.Fatal("round 2: persistent congestion should terminate the hog")
	}
	if m.throttled("site-innocent") {
		t.Error("round 2: the innocent site must not be throttled in the hog's place")
	}
	if !m.throttled("site-hog") {
		t.Error("round 2: the hog should remain throttled")
	}
}

// killFunc registers a function as a pipeline's Terminator.
type killFunc func()

func (f killFunc) Terminate() { f() }
