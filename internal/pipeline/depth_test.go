package pipeline

import (
	"errors"
	"os"
	"os/exec"
	"runtime/debug"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// runaway recurses without end: before script calls had a depth bound it
// grew the Go stack to the runtime's limit and killed the process with a
// fatal stack overflow, which no recover catches.
const runaway = `function f(n) { return f(n + 1); } f(0)`

// nodeLimits are the script limits a node runs with by default.
var nodeLimits = script.Limits{MaxSteps: 50_000_000, MaxHeapBytes: 64 << 20}

// childEnv names the test a re-executed test binary runs in-process.
const childEnv = "NAKIKA_PIPELINE_TEST_CHILD"

// inChild runs body in a child process: the test binary re-executed with
// only the calling test selected, so a fatal error in body ends the child,
// which the parent reports with its exit status and output, instead of the
// whole test binary. The child caps goroutine stacks at 128 MB, 8 times
// below the runtime's default, so a missing depth bound fails fast.
func inChild(t *testing.T, body func(t *testing.T)) {
	if os.Getenv(childEnv) == t.Name() {
		debug.SetMaxStack(128 << 20)
		body(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	if out, err := cmd.CombinedOutput(); err != nil {
		if len(out) > 4000 {
			out = out[:4000]
		}
		t.Fatalf("child process exited: %v\n%s", err, out)
	}
}

// TestDepthLimitStopsCompile: a nakika.js whose top-level code recurses
// without end fails its compile with ErrDepthLimit, and the process lives.
func TestDepthLimitStopsCompile(t *testing.T) {
	inChild(t, func(t *testing.T) {
		_, err := NewLoader(newScriptHost(), nodeLimits).Compile("http://deep.example.org/nakika.js", "deep.example.org", runaway)
		if !errors.Is(err, script.ErrDepthLimit) {
			t.Fatalf("compile error = %v, want ErrDepthLimit", err)
		}
	})
}

// TestDepthLimitStopsHandler: a handler that recurses without end at request
// time ends its request with a 503, like the step limit, and the process
// lives.
func TestDepthLimitStopsHandler(t *testing.T) {
	inChild(t, func(t *testing.T) {
		h := newScriptHost()
		h.origin["http://deep.example.org/x"] = "x"
		h.scripts["http://deep.example.org/nakika.js"] = `
			var p = new Policy();
			p.onRequest = function () { ` + runaway + ` };
			p.register();
		`
		e := newExecutor(h)
		e.Loader = NewLoader(h, nodeLimits)
		resp, trace, err := e.Execute(httpmsg.MustRequest("GET", "http://deep.example.org/x"))
		if err != nil {
			t.Fatal(err)
		}
		if !trace.Terminated || resp.Status != 503 {
			t.Fatalf("terminated = %v, status = %d; want a terminated pipeline and 503", trace.Terminated, resp.Status)
		}
	})
}
