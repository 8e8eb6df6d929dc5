package admin_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"nakika/internal/admin"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
)

// childEnv names the test a re-executed test binary runs in-process.
const childEnv = "NAKIKA_ADMIN_TEST_CHILD"

// inChild runs body in a child process: the test binary re-executed with
// only the calling test selected, so a fatal error in body (a Go stack
// overflow, which no recover catches) ends the child, which the parent
// reports with its exit status and output, instead of the whole test
// binary. The child caps goroutine stacks at 128 MB, 8 times below the
// runtime's default, so a missing depth bound fails fast.
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

// TestDeployRunawayScriptRejected: a bundle whose top-level code recurses
// without end, POSTed to /admin/deploy, is refused with a 422 at the
// publishing node, whose canary compile stops at the call-depth bound; the
// node goes on serving requests and accepting deploys.
func TestDeployRunawayScriptRejected(t *testing.T) {
	inChild(t, func(t *testing.T) {
		node, err := core.NewNode(core.Config{
			Name: "deploy-depth",
			Upstream: core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
				if req.Path() == "/page" {
					return httpmsg.NewHTMLResponse(200, "<p>still serving</p>"), nil
				}
				return httpmsg.NewTextResponse(404, "none"), nil
			}),
			ClientWallURL: "http://walls.invalid/clientwall.js",
			ServerWallURL: "http://walls.invalid/serverwall.js",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Shutdown()
		srv := httptest.NewServer(admin.NewHandler(node))
		defer srv.Close()
		deploy := func(script string) (int, string) {
			t.Helper()
			body := `{"site":"deep.example.org","script":` + strconv.Quote(script) + `}`
			resp, err := srv.Client().Post(srv.URL+"/admin/deploy", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(out)
		}

		code, body := deploy(`function f(n) { return f(n + 1); } f(0)`)
		if code != http.StatusUnprocessableEntity || !strings.Contains(body, "call depth") {
			t.Fatalf("runaway bundle: %d %q, want 422 naming the call depth limit", code, body)
		}
		resp, _, err := node.Handle(httpmsg.MustRequest("GET", "http://deep.example.org/page"))
		if err != nil || resp.Status != 200 || string(resp.Body) != "<p>still serving</p>" {
			t.Fatalf("after the refused deploy: %v, %v", resp, err)
		}
		if code, body := deploy(`onResponse = function () { Response.setHeader("X-Deployed", "1"); };`); code != 200 {
			t.Fatalf("a valid bundle after the refused one: %d %q", code, body)
		}
	})
}
