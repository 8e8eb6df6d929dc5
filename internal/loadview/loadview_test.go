package loadview

import (
	"testing"
	"time"
)

// virtualClock is a hand-advanced clock for deterministic decay tests.
type virtualClock struct{ now time.Duration }

func (c *virtualClock) Now() time.Duration { return c.now }

func TestMeterInflightAndDecay(t *testing.T) {
	clk := &virtualClock{}
	m := NewMeter(clk.Now, time.Second)
	if got := m.Score(); got != 0 {
		t.Fatalf("fresh meter score = %v, want 0", got)
	}
	m.Begin()
	if got := m.Score(); got != 1 {
		t.Fatalf("score with one in-flight = %v, want 1", got)
	}
	m.End(1)
	if got := m.Score(); got != 1 {
		t.Fatalf("score after completion = %v, want 1 (work)", got)
	}
	// One half-life halves the work component.
	clk.now += time.Second
	if got := m.Score(); got < 0.49 || got > 0.51 {
		t.Fatalf("score after one half-life = %v, want ~0.5", got)
	}
	// Many half-lives decay toward zero.
	clk.now += 40 * time.Second
	if got := m.Score(); got > 1e-9 {
		t.Fatalf("score after 40 half-lives = %v, want ~0", got)
	}
}

func TestMeterCostAccumulates(t *testing.T) {
	clk := &virtualClock{}
	m := NewMeter(clk.Now, time.Second)
	for i := 0; i < 10; i++ {
		m.Begin()
		m.End(1)
	}
	if got := m.Score(); got != 10 {
		t.Fatalf("score after 10 instant requests = %v, want 10", got)
	}
}

func TestScoreWireRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, 0.5, 12.75, 1e-9, 123456.789} {
		got, ok := ParseScore(FormatScore(v))
		if !ok || got != v {
			t.Fatalf("round trip of %v = (%v, %v)", v, got, ok)
		}
	}
	if _, ok := ParseScore(""); ok {
		t.Fatal("empty score parsed")
	}
	if _, ok := ParseScore("NaN"); ok {
		t.Fatal("NaN score parsed")
	}
	if _, ok := ParseScore("bogus"); ok {
		t.Fatal("malformed score parsed")
	}
}

func TestViewLeastLoadedDeterministic(t *testing.T) {
	clk := &virtualClock{}
	v := NewView(clk.Now, time.Second)
	v.Observe("b", 3)
	v.Observe("c", 1)
	name, score, ok := v.LeastLoaded([]string{"b", "c"})
	if !ok || name != "c" || score != 1 {
		t.Fatalf("LeastLoaded = (%s, %v, %v), want (c, 1, true)", name, score, ok)
	}
	// Unknown peers read as cold and win.
	name, score, ok = v.LeastLoaded([]string{"b", "c", "z"})
	if !ok || name != "z" || score != 0 {
		t.Fatalf("LeastLoaded with unknown = (%s, %v, %v), want (z, 0, true)", name, score, ok)
	}
	// Ties break lexicographically, regardless of candidate order.
	v.Observe("a", 1)
	v.Observe("z", 1)
	v.Observe("b", 1)
	v.Observe("c", 1)
	for _, cands := range [][]string{{"z", "c", "a", "b"}, {"b", "a", "z", "c"}} {
		if name, _, _ := v.LeastLoaded(cands); name != "a" {
			t.Fatalf("tie broke to %s for %v, want a", name, cands)
		}
	}
	if _, _, ok := v.LeastLoaded(nil); ok {
		t.Fatal("LeastLoaded of empty candidates reported ok")
	}
}

func TestViewObservationsDecay(t *testing.T) {
	clk := &virtualClock{}
	v := NewView(clk.Now, time.Second)
	v.Observe("p", 8)
	clk.now += 3 * time.Second
	if _, got, _ := v.LeastLoaded([]string{"p"}); got < 0.99 || got > 1.01 {
		t.Fatalf("decayed view score = %v, want ~1", got)
	}
}

func TestRTTEWMA(t *testing.T) {
	r := NewRTT(0.5)
	if _, ok := r.Expect("p"); ok {
		t.Fatal("expectation before any observation")
	}
	r.Observe("p", 10*time.Millisecond)
	if d, ok := r.Expect("p"); !ok || d != 10*time.Millisecond {
		t.Fatalf("first observation = (%v, %v), want 10ms", d, ok)
	}
	r.Observe("p", 30*time.Millisecond)
	if d, _ := r.Expect("p"); d != 20*time.Millisecond {
		t.Fatalf("EWMA after 10,30 at alpha 0.5 = %v, want 20ms", d)
	}
	// A slow peer's estimate converges upward within a few calls.
	for i := 0; i < 8; i++ {
		r.Observe("p", 100*time.Millisecond)
	}
	if d, _ := r.Expect("p"); d < 90*time.Millisecond {
		t.Fatalf("EWMA stuck at %v after sustained 100ms observations", d)
	}
}
