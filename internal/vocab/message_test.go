package vocab

import (
	"strings"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// TestNativeAfterItsRunThrows: Request's and Response's natives and data
// properties reach the messages of the run they are used in. A script
// keeps Request.getHeader, Response.setStatus and the Request object in
// globals; once ClearMessages ends the run, a Context.Call of either native
// with no message bound throws, and the kept Request has no method, instead
// of reading a request that may have been given back for reuse. Bound
// again, the kept objects read the new run's messages.
func TestNativeAfterItsRunThrows(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	if _, err := ctx.RunSource(`
		var getHeader = null, setStatus = null, req = null;
		function handler() {
			getHeader = Request.getHeader;
			setStatus = Response.setStatus;
			req = Request;
			return Request.getHeader("X-Tag") + " " + Request.method + " " + Response.status;
		}
		function kept() { return getHeader("X-Tag") + " " + req.method + " " + req.path; }
	`, "kept.js"); err != nil {
		t.Fatal(err)
	}
	run := func(method, tag, path string) {
		req := httpmsg.MustRequest(method, "http://site.example"+path)
		req.Header.Set("X-Tag", tag)
		BindRequest(ctx, req)
		BindResponse(ctx, httpmsg.NewResponse(200))
	}
	call := func(name string, args ...script.Value) (script.Value, error) {
		fn, _ := ctx.Global(name)
		return ctx.Call(fn, script.Undefined{}, args...)
	}
	run("GET", "one", "/first")
	if v, err := call("handler"); err != nil || script.ToString(v) != "one GET 200" {
		t.Fatalf("the run read %v, %v", v, err)
	}
	ClearMessages(ctx)
	for _, name := range []string{"getHeader", "setStatus"} {
		v, err := call(name, script.Str("X-Tag"))
		if err == nil || !strings.Contains(err.Error(), "in this run") {
			t.Errorf("%s kept past its run answered %v, %v; want it to throw", name, v, err)
		}
	}
	if v, err := ctx.RunSource(`typeof req.method`, "after.js"); err != nil || script.ToString(v) != "undefined" {
		t.Errorf("the kept Request's method after its run reads %v, %v; want undefined", v, err)
	}
	run("POST", "two", "/second")
	if v, err := call("kept"); err != nil || script.ToString(v) != "two POST /second" {
		t.Errorf("the kept natives in the next run read %v, %v; want that run's request", v, err)
	}
}
