package script

import (
	"fmt"
	"sync"
	"testing"
)

// evalIn runs src in ctx and fails the test on error.
func evalIn(t *testing.T, ctx *Context, src string) Value {
	t.Helper()
	v, err := ctx.RunSource(src, "test.js")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestForkIsolatesGlobals(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `var counter = 0; var tag = "orig";`)
	fork, _ := ctx.Fork()
	evalIn(t, fork, `counter = counter + 10; tag = "fork";`)
	if v, _ := ctx.Global("counter"); ToNumber(v) != 0 {
		t.Errorf("original counter = %v, want 0", v)
	}
	if v, _ := fork.Global("counter"); ToNumber(v) != 10 {
		t.Errorf("fork counter = %v, want 10", v)
	}
	if v, _ := ctx.Global("tag"); ToString(v) != "orig" {
		t.Errorf("original tag = %v", v)
	}
}

func TestForkClonesClosures(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `
		var n = 0;
		function bump() { n = n + 1; return n; }
	`)
	fork, _ := ctx.Fork()
	fn, ok := fork.Global("bump")
	if !ok {
		t.Fatal("fork lost the bump function")
	}
	for i := 0; i < 3; i++ {
		if _, err := fork.Call(fn, Undefined{}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := fork.Global("n"); ToNumber(v) != 3 {
		t.Errorf("fork n = %v, want 3", v)
	}
	if v, _ := ctx.Global("n"); ToNumber(v) != 0 {
		t.Errorf("original n = %v, want 0 (closure must write the fork's env)", v)
	}
}

func TestForkTranslatesRoots(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `
		var state = { hits: 0 };
		var handler = function() { state.hits = state.hits + 1; return state.hits; };
	`)
	orig, _ := ctx.Global("handler")
	fork, roots := ctx.Fork(orig)
	if len(roots) != 1 || roots[0] == orig {
		t.Fatal("root should be translated to a distinct fork value")
	}
	// The translated root must be the same value the fork's globals hold.
	if g, _ := fork.Global("handler"); g != roots[0] {
		t.Error("translated root and forked global must be identical")
	}
	if _, err := fork.Call(roots[0], Undefined{}); err != nil {
		t.Fatal(err)
	}
	if v := evalIn(t, fork, `state.hits`); ToNumber(v) != 1 {
		t.Errorf("fork state.hits = %v, want 1", v)
	}
	if v := evalIn(t, ctx, `state.hits`); ToNumber(v) != 0 {
		t.Errorf("original state.hits = %v, want 0", v)
	}
}

func TestForkHandlesCycles(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `
		var a = { name: "a" };
		var b = { name: "b", peer: a };
		a.peer = b;
		var arr = [ a, b ];
		arr[2] = arr;
	`)
	fork, _ := ctx.Fork()
	if v := evalIn(t, fork, `a.peer.peer === a`); !bool(v.(Bool)) {
		t.Error("cycle a<->b must survive the fork")
	}
	if v := evalIn(t, fork, `arr[2] === arr`); !bool(v.(Bool)) {
		t.Error("self-referencing array must survive the fork")
	}
	// Shared structure stays shared: arr[0] and a are the same object.
	if v := evalIn(t, fork, `arr[0] === a`); !bool(v.(Bool)) {
		t.Error("shared references must stay identical in the fork")
	}
}

func TestForkCopiesByteArrays(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `var buf = new ByteArray(); buf.append("abc");`)
	fork, _ := ctx.Fork()
	evalIn(t, fork, `buf[0] = 90;`)
	if v := evalIn(t, ctx, `buf.toString()`); ToString(v) != "abc" {
		t.Errorf("original buffer mutated through fork: %q", ToString(v))
	}
	if v := evalIn(t, fork, `buf.toString()`); ToString(v) != "Zbc" {
		t.Errorf("fork buffer = %q, want Zbc", ToString(v))
	}
}

func TestForkResetsCountersAndTermination(t *testing.T) {
	ctx := NewContext(Limits{MaxSteps: 1 << 20})
	evalIn(t, ctx, `var x = 1;`)
	ctx.Terminate()
	fork, _ := ctx.Fork()
	if fork.terminated.Load() {
		t.Error("fork must start unterminated")
	}
	if fork.Steps() != 0 || fork.HeapBytes() != 0 {
		t.Error("fork must start with zeroed counters")
	}
	if _, err := fork.RunSource(`x + 1`, "t.js"); err != nil {
		t.Errorf("fork should be runnable: %v", err)
	}
}

func TestForksRunConcurrently(t *testing.T) {
	ctx := NewContext(Limits{})
	evalIn(t, ctx, `
		var total = 0;
		function work() {
			for (var i = 0; i < 500; i++) { total = total + 1; }
			return total;
		}
	`)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		fork, _ := ctx.Fork()
		wg.Add(1)
		go func(f *Context) {
			defer wg.Done()
			fn, _ := f.Global("work")
			for j := 0; j < 20; j++ {
				if _, err := f.Call(fn, Undefined{}); err != nil {
					errs <- err
					return
				}
			}
			if v, _ := f.Global("total"); ToNumber(v) != 500*20 {
				errs <- fmt.Errorf("fork total = %v, want %d", ToNumber(v), 500*20)
			}
		}(fork)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
