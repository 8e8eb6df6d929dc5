package main

import (
	"hash/fnv"
	"math"
	"testing"
)

// digest folds a generated sequence into one number.
func digest(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		h.Write([]byte(o.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// The seed is the only input that changes a sequence: the same seed
// gives byte-identical warm-up and window, another seed another window.
func TestGeneratorsAreSeeded(t *testing.T) {
	for _, full := range workloads {
		w := full.smoke()
		warm1, win1 := w.generate(w, 7, 300)
		warm2, win2 := w.generate(w, 7, 300)
		_, win3 := w.generate(w, 8, 300)
		if digest(warm1) != digest(warm2) || digest(win1) != digest(win2) {
			t.Errorf("%s: the same seed gave different sequences", w.name)
		}
		if digest(win1) == digest(win3) {
			t.Errorf("%s: seeds 7 and 8 gave the same window", w.name)
		}
		if len(win1) != 300 {
			t.Errorf("%s: window has %d ops, want 300", w.name, len(win1))
		}
		for _, o := range append(warm1, win1...) {
			if int(o.class) >= len(w.classes) {
				t.Fatalf("%s: op %s has class %d of %d", w.name, o.target, o.class, len(w.classes))
			}
		}
	}
}

// The mixes the workload table promises, measured on a long window.
func TestClassShares(t *testing.T) {
	share := func(ops []op, class uint8) float64 {
		n := 0
		for _, o := range ops {
			if o.class == class {
				n++
			}
		}
		return float64(n) / float64(len(ops))
	}
	for _, c := range []struct {
		workload string
		class    uint8
		want     float64
	}{{"static_hot", 1, 0.20}, {"simm_render", 0, 0.71}, {"state_rw", 1, 0.30}} {
		w := workloadByName(c.workload)
		_, window := w.generate(w, 3, 20000)
		if got := share(window, c.class); math.Abs(got-c.want) > 0.02 {
			t.Errorf("%s: class %s is %.3f of the window, want about %.2f", c.workload, w.classes[c.class], got, c.want)
		}
	}
}

// cache_churn's warm-up must touch every key, or the window would reach
// the origin.
func TestChurnWarmUpTouchesEveryKey(t *testing.T) {
	w := workloadByName("cache_churn").smoke()
	warm, window := w.generate(w, 1, 500)
	seen := make(map[string]bool)
	for _, o := range warm {
		seen[o.target] = true
	}
	if len(seen) != w.keys {
		t.Errorf("warm-up touches %d keys, want %d", len(seen), w.keys)
	}
	for _, o := range window {
		if !seen[o.target] {
			t.Fatalf("window key %s was never warmed", o.target)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	w := workloadByName("cache_churn")
	_, window := w.generate(w, 1, 50000)
	counts := make(map[string]int)
	for _, o := range window {
		counts[o.target]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Rank 1 of Zipf(0.75) over 8192 keys draws 1/sum(k^-0.75) = 2.8% of
	// requests, 230 times a uniform key's share.
	if got := float64(top) / float64(len(window)); got < 0.022 || got > 0.034 {
		t.Errorf("most popular key draws %.4f of requests, want about 0.028", got)
	}
}

func TestCheckRejectsWrongResponses(t *testing.T) {
	o := stateOp("user-1", false)
	good := []byte("<html><body><h1>SPECweb99-like</h1><p>profile ads=6</p><p>user=user-1</p></body></html>")
	if !o.check(200, good) {
		t.Error("the edge script's profile page must pass")
	}
	if o.check(503, good) {
		t.Error("a refusal must fail")
	}
	bad := append([]byte(nil), good...)
	bad[40] ^= 1
	if o.check(200, bad) {
		t.Error("a body of the right length and wrong bytes must fail")
	}
	w := workloadByName("large_range").smoke()
	_, window := w.generate(w, 1, 1)
	body := append([]byte(nil), window[0].wantBody...)
	if !window[0].check(206, body) {
		t.Error("the object's own bytes must pass")
	}
	body[len(body)-1]++
	if window[0].check(206, body) {
		t.Error("a range with one wrong byte must fail")
	}
}
