package pipeline

import (
	"sync"
	"testing"
	"time"

	"nakika/internal/script"
	"nakika/internal/vocab"
)

const poolTestScript = `
	var hits = 0;
	var p = new Policy();
	p.onResponse = function() { hits = hits + 1; };
	p.register();
`

// forked returns how many pool contexts the stage has forked so far.
func (s *Stage) forked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.created
}

func poolTestLoader(poolSize int) *Loader {
	l := NewLoader(vocab.NopHost{}, script.Limits{})
	l.poolSize = poolSize
	return l
}

// TestPoolRunsHandlersInParallel drives N concurrent runs through one stage
// and requires them all to be inside WithRun at the same time with distinct
// contexts; a single shared context would deadlock the barrier.
func TestPoolRunsHandlersInParallel(t *testing.T) {
	const n = 4
	l := poolTestLoader(n)
	st, err := l.Compile("http://pool.example.org/nakika.js", "pool.example.org", poolTestScript)
	if err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	var mu sync.Mutex
	ctxs := make(map[*script.Context]bool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := st.WithRun(func(run *Run) error {
				mu.Lock()
				ctxs[run.Ctx] = true
				mu.Unlock()
				arrived.Done()
				<-release
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait() // deadlocks here if the stage serializes runs
	close(release)
	wg.Wait()
	if len(ctxs) != n {
		t.Errorf("distinct contexts = %d, want %d", len(ctxs), n)
	}
	if st.forked() != n {
		t.Errorf("forked contexts = %d, want %d", st.forked(), n)
	}
}

// TestPoolBoundBlocks verifies the pool is a hard cap: with a bound of 2, a
// third concurrent run waits until a context is released.
func TestPoolBoundBlocks(t *testing.T) {
	l := poolTestLoader(2)
	st, err := l.Compile("http://cap.example.org/nakika.js", "cap.example.org", poolTestScript)
	if err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = st.WithRun(func(run *Run) error {
				arrived.Done()
				<-release
				return nil
			})
		}()
	}
	arrived.Wait()
	third := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = st.WithRun(func(run *Run) error { return nil })
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("third run should block while the pool is exhausted")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-third:
	case <-time.After(2 * time.Second):
		t.Fatal("third run should proceed once a context is released")
	}
	wg.Wait()
	if st.forked() > 2 {
		t.Errorf("pool forked %d contexts, cap is 2", st.forked())
	}
}

// TestPoolIsolatesScriptGlobals checks that concurrent runs mutate fork-local
// copies of the stage's globals, not one shared heap.
func TestPoolIsolatesScriptGlobals(t *testing.T) {
	l := poolTestLoader(3)
	st, err := l.Compile("http://iso.example.org/nakika.js", "iso.example.org", poolTestScript)
	if err != nil {
		t.Fatal(err)
	}
	pol := st.Policies()[0]
	var arrived sync.WaitGroup
	arrived.Add(3)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := st.WithRun(func(run *Run) error {
				arrived.Done()
				<-release
				if _, err := run.Ctx.Call(run.Handler(pol.OnResponse), script.Undefined{}); err != nil {
					return err
				}
				v, _ := run.Ctx.Global("hits")
				if script.ToNumber(v) != 1 {
					t.Errorf("hits = %v in fork, want 1 (fork-local state)", v)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	wg.Wait()
	// The pristine context is never executed in; its globals stay untouched.
	if v, _ := st.pristine.Global("hits"); script.ToNumber(v) != 0 {
		t.Errorf("pristine hits = %v, want 0", v)
	}
}

// TestPoolForkChargesSite verifies forking is charged to the stage's site.
func TestPoolForkChargesSite(t *testing.T) {
	l := poolTestLoader(2)
	var mu sync.Mutex
	charges := make(map[string]int64)
	l.ForkCharge = func(site string, heapBytes int64) {
		mu.Lock()
		defer mu.Unlock()
		charges[site] += heapBytes
	}
	st, err := l.Compile("http://charge.example.org/nakika.js", "charge.example.org", poolTestScript)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithRun(func(run *Run) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if charges["charge.example.org"] <= 0 {
		t.Errorf("fork charge = %v, want > 0", charges["charge.example.org"])
	}
}

// TestPoolInstanceRecoversAfterLimit verifies a pooled context that crossed
// its step budget is reset on release rather than returned poisoned: with a
// pool of one, the very next run draws the same instance and must succeed.
func TestPoolInstanceRecoversAfterLimit(t *testing.T) {
	l := NewLoader(vocab.NopHost{}, script.Limits{MaxSteps: 20_000})
	l.poolSize = 1
	st, err := l.Compile("http://limit.example.org/nakika.js", "limit.example.org", poolTestScript)
	if err != nil {
		t.Fatal(err)
	}
	err = st.WithRun(func(run *Run) error {
		_, err := run.Ctx.RunSource(`var t = 0; for (var i = 0; i < 100000; i++) { t += i; }`, "hog.js")
		if err == nil {
			t.Error("expected the hog to exceed the step limit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = st.WithRun(func(run *Run) error {
		if _, err := run.Ctx.RunSource(`1 + 1`, "ok.js"); err != nil {
			t.Errorf("pooled context returned poisoned: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmptyStageHasNoRun verifies that a missing script's stage, which has
// no policies, reports a usable error instead of handing out a nil context.
func TestEmptyStageHasNoRun(t *testing.T) {
	st := &Stage{URL: "http://none.example.org/nakika.js"}
	if err := st.WithRun(func(run *Run) error { return nil }); err == nil {
		t.Error("empty stage should refuse to run handlers")
	}
}
