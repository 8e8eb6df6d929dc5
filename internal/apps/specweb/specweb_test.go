package specweb

import (
	"fmt"
	"strings"
	"testing"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/script"
	"nakika/internal/state"
)

// userCount returns the number of registered users.
func (o *Origin) userCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.users)
}

func TestOriginStaticFiles(t *testing.T) {
	o := NewOrigin(Config{})
	resp, err := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/file_set/dir/class1_3"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 10<<10 {
		t.Errorf("class1 file: status=%d len=%d", resp.Status, len(resp.Body))
	}
	if !resp.Cacheable() {
		t.Error("static files should be cacheable")
	}
	if r, _ := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/file_set/dir/class9_0")); r.Status != 404 {
		t.Error("unknown class should be 404")
	}
}

func TestOriginDynamicRegistrationAndProfile(t *testing.T) {
	o := NewOrigin(Config{Users: 10})
	before := o.userCount()
	reg, err := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/cgi-bin/register?user=newbie"))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Status != 200 || !strings.Contains(string(reg.Body), "registered") {
		t.Errorf("register = %d %q", reg.Status, reg.Body)
	}
	if reg.Cacheable() {
		t.Error("dynamic responses must not be cacheable")
	}
	if o.userCount() != before+1 {
		t.Error("registration should add a user")
	}
	prof, _ := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/cgi-bin/profile?user=newbie"))
	if !strings.Contains(string(prof.Body), "profile") {
		t.Errorf("profile = %q", prof.Body)
	}
	missing, _ := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/cgi-bin/profile?user=ghost"))
	if !strings.Contains(string(missing.Body), "unknown-user") {
		t.Errorf("missing profile = %q", missing.Body)
	}
	bad, _ := o.Do(httpmsg.MustRequest("GET", "http://specweb.example.org/cgi-bin/register"))
	if bad.Status != 400 {
		t.Errorf("register without user = %d", bad.Status)
	}
}

func TestEdgeScriptParses(t *testing.T) {
	if _, err := script.Parse(EdgeScript("specweb.example.org"), "nakika.js"); err != nil {
		t.Fatalf("edge script does not parse: %v", err)
	}
}

func TestEdgeScriptHandlesDynamicRequestsAtEdge(t *testing.T) {
	origin := NewOrigin(Config{})
	host := origin.Config().Host
	upstream := core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		if req.Path() == "/nakika.js" && req.Host() == host {
			r := httpmsg.NewTextResponse(200, EdgeScript(host))
			r.Header.Set("Content-Type", "application/javascript")
			r.SetMaxAge(300)
			return r, nil
		}
		return origin.Do(req)
	})
	bus := state.NewBus()
	nodeA, err := core.NewNode(core.Config{Name: "edge-a", Upstream: upstream, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := core.NewNode(core.Config{Name: "edge-b", Upstream: upstream, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	// Warm both nodes' replicas for the site (replica attachment is lazy).
	if _, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/profile?user=warm")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nodeB.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/profile?user=warm")); err != nil {
		t.Fatal(err)
	}

	originDynamicBefore := 0 // the origin never sees edge-handled dynamics, verified below
	reg, trace, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/register?user=edgeuser"))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Status != 200 || !trace.Generated {
		t.Fatalf("register at edge: status=%d generated=%v", reg.Status, trace.Generated)
	}
	// The profile registered at node A is readable from node B via replication.
	prof, trace, err := nodeB.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/profile?user=edgeuser"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prof.Body), "profile") || !trace.Generated {
		t.Errorf("replicated profile read = %q generated=%v", prof.Body, trace.Generated)
	}
	// Static requests still flow to the origin and get cached.
	st, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/file_set/dir/class0_1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != 200 || len(st.Body) != 1<<10 {
		t.Errorf("static via edge: %d %d bytes", st.Status, len(st.Body))
	}
	_ = originDynamicBefore
	if origin.userCount() != (Config{}).Defaults().Users {
		t.Error("edge-handled registrations must not touch the origin's user table")
	}

	// The lease-guarded checkpoint runs at the edge: each request takes the
	// per-site lease, bumps the counter under its fencing token, and
	// releases, so repeat requests advance the count exactly once each.
	// (This shared-bus setup keeps fenced writes node-local; the
	// cluster tests cover lease arbitration and fenced replication across
	// nodes.)
	for want := 1; want <= 2; want++ {
		chk, trace, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/checkpoint"))
		if err != nil {
			t.Fatal(err)
		}
		if chk.Status != 200 || !trace.Generated || string(chk.Body) != fmt.Sprintf("checkpoint %d", want) {
			t.Fatalf("checkpoint %d at edge: status=%d generated=%v body=%q", want, chk.Status, trace.Generated, chk.Body)
		}
	}

	// The lease-guarded job: begin hands the fencing token to the client
	// and steps write under it. A second begin through the same node is
	// the holder re-entering its own lease — same token, not a new
	// holdership (denial of OTHER nodes is cluster arbitration, covered
	// by the cluster and e2e suites).
	begin, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/job?op=begin&ttl=60000"))
	if err != nil {
		t.Fatal(err)
	}
	if string(begin.Body) != "token 1" {
		t.Fatalf("job begin = %q", begin.Body)
	}
	again, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/job?op=begin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Body) != "token 1" {
		t.Fatalf("holder re-begin = %q, want the same token", again.Body)
	}
	step, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/job?op=step&seq=7&token=1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(step.Body) != "step 7 ok" {
		t.Fatalf("job step = %q", step.Body)
	}
	// A token never granted is fenced at the floor; the script reports it
	// instead of falling through to the origin.
	stale, _, err := nodeA.Handle(httpmsg.MustRequest("GET", "http://"+host+"/cgi-bin/job?op=step&seq=8&token=0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(stale.Body) != "fenced" {
		t.Fatalf("stale job step = %q, want fenced", stale.Body)
	}
}
