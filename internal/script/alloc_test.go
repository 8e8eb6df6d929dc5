package script

import (
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestHandlerCallAllocatesNothing: a Context.Call of a compiled handler
// that calls natives with literal arguments, bare and as a method,
// allocates nothing. The literals were boxed when the script was parsed,
// the arguments are evaluated onto the context's stack, and the handler,
// which creates no closure and never names arguments, runs in a frame the
// context keeps. Boxing the literals at every evaluation, a slice per
// call's arguments and a frame, its bindings and an arguments array per
// call came to 10 allocations here.
func TestHandlerCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the compiler can keep off the heap")
	}
	ctx := NewContext(Limits{})
	var calls int
	sink := &Native{Name: "sink", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		calls++
		return Undefined{}, nil
	}}
	host := NewObject()
	host.Set("setHeader", sink)
	ctx.DefineGlobal("sink", sink)
	ctx.DefineGlobal("host", host)
	if _, err := ctx.RunSource(`
		function handler() {
			sink("X-Edge", 1, 2.5, true, null);
			host.setHeader("X-Largefile-Edge", "1");
		}
	`, "handler.js"); err != nil {
		t.Fatal(err)
	}
	handler, _ := ctx.Global("handler")
	call := func() {
		if _, err := ctx.Call(handler, Undefined{}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("a handler call allocates %.1f times, want none", allocs)
	}
	if calls != 2*102 {
		t.Errorf("the natives ran %d times, want %d", calls, 2*102)
	}
}

// TestKeptFramesAndArguments: a frame kept for reuse starts each call with
// nothing of the last, recursion takes a frame per level, a native's
// arguments are read while it runs, and a function that names arguments,
// or hands its frame to a closure, keeps what it was given after the
// caller's stack moved on.
func TestKeptFramesAndArguments(t *testing.T) {
	ctx := NewContext(Limits{})
	v, err := ctx.RunSource(`
		function count(n) { var seen = typeof left; var left = n; if (n == 0) { return seen; } return count(n - 1); }
		function sum(n) { if (n == 0) { return 0; } return n + sum(n - 1); }
		function args() { return arguments; }
		function later(x) { return function () { return x; }; }
		var kept = args(1, "two", 3);
		var f = later("closed");
		var g = later("over");
		[count(3), count(2), sum(100), kept.length, kept[1], f(), g(), Array(7, 8).length, sum(1)].join(",");
	`, "frames.js")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ToString(v), strings.Join([]string{"undefined", "undefined", "5050", "3", "two", "closed", "over", "2", "1"}, ","); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
