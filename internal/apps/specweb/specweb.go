// Package specweb provides the SPECweb99-like workload used in Section 5.3
// of the paper to evaluate hard state replication.
//
// The paper re-implemented SPECweb99's server-side scripts in PHP (for the
// single-server baseline) and in Na Kika Pages backed by replicated hard
// state (for the edge version), with an 80% dynamic request mix and user
// registration/profile management as the hard state. This package builds
// both sides synthetically: a dynamic origin whose per-request cost models a
// PHP interpreter hit, a static file set, a request-mix generator, and the
// nakika.js the edge version publishes.
package specweb

import (
	"fmt"
	"strings"
	"sync"

	"nakika/internal/httpmsg"
)

// Config shapes the synthetic SPECweb workload.
type Config struct {
	// Host is the origin host.
	Host string
	// StaticClasses is the number of static file classes (SPECweb99 uses 4
	// size classes); StaticPerClass files exist per class.
	StaticClasses  int
	StaticPerClass int
	// Users is the size of the registered-user population.
	Users int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Host == "" {
		c.Host = "specweb.example.org"
	}
	if c.StaticClasses <= 0 {
		c.StaticClasses = 4
	}
	if c.StaticPerClass <= 0 {
		c.StaticPerClass = 9
	}
	if c.Users <= 0 {
		c.Users = 1000
	}
	return c
}

// classSizes are the SPECweb99 static file class sizes (bytes), scaled.
var classSizes = []int{1 << 10, 10 << 10, 100 << 10, 512 << 10}

// Origin is the single-server dynamic application (the PHP baseline): every
// dynamic request runs registration/profile logic against a local user
// table.
type Origin struct {
	cfg    Config
	mu     sync.Mutex
	users  map[string]string
	static map[int][]byte
}

// NewOrigin builds the synthetic origin with a pre-registered user base.
func NewOrigin(cfg Config) *Origin {
	cfg = cfg.Defaults()
	o := &Origin{cfg: cfg, users: make(map[string]string), static: make(map[int][]byte)}
	for class := 0; class < cfg.StaticClasses && class < len(classSizes); class++ {
		body := make([]byte, classSizes[class])
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		o.static[class] = body
	}
	for u := 0; u < cfg.Users; u++ {
		o.users[fmt.Sprintf("user-%d", u)] = fmt.Sprintf(`{"id":%d,"ads":%d}`, u, u%360)
	}
	return o
}

// Config returns the effective configuration.
func (o *Origin) Config() Config { return o.cfg }

// Do implements core.Fetcher.
//
//	/file_set/dir/class{c}_{k}          static file
//	/cgi-bin/register?user=NAME         dynamic: register or update a user
//	/cgi-bin/profile?user=NAME          dynamic: fetch a profile + ad rotation
//	/nakika.js                          404 (the baseline publishes no script)
func (o *Origin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	path := req.Path()
	switch {
	case strings.HasPrefix(path, "/file_set/"):
		var class, k int
		if !matchTail(path, "class%d_%d", &class, &k) || o.static[class] == nil {
			return httpmsg.NewTextResponse(404, "no such file"), nil
		}
		resp := httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "application/octet-stream")
		resp.SetBody(o.static[class])
		resp.SetMaxAge(3600)
		return resp, nil
	case path == "/cgi-bin/register":
		user := req.Query("user")
		if user == "" {
			return httpmsg.NewTextResponse(400, "missing user"), nil
		}
		o.mu.Lock()
		o.users[user] = fmt.Sprintf(`{"id":%d,"ads":%d}`, len(o.users), len(user)%360)
		o.mu.Unlock()
		resp := httpmsg.NewHTMLResponse(200, dynamicPage("registered", user))
		resp.Header.Set("Cache-Control", "no-store")
		return resp, nil
	case path == "/cgi-bin/profile":
		user := req.Query("user")
		o.mu.Lock()
		profile, ok := o.users[user]
		o.mu.Unlock()
		if !ok {
			resp := httpmsg.NewHTMLResponse(200, dynamicPage("unknown-user", user))
			resp.Header.Set("Cache-Control", "no-store")
			return resp, nil
		}
		resp := httpmsg.NewHTMLResponse(200, dynamicPage("profile "+profile, user))
		resp.Header.Set("Cache-Control", "no-store")
		return resp, nil
	default:
		return httpmsg.NewTextResponse(404, "not found"), nil
	}
}

func matchTail(path, pattern string, args ...interface{}) bool {
	i := strings.LastIndex(path, "/")
	n, err := fmt.Sscanf(path[i+1:], pattern, args...)
	return err == nil && n == len(args)
}

// dynamicPage renders the dynamic response body with the SPECweb99-style ad
// rotation banner.
func dynamicPage(result, user string) string {
	return "<html><body><h1>SPECweb99-like</h1><p>" + result + "</p><p>user=" + user +
		"</p><div class='ad'>" + strings.Repeat("ad ", 64) + "</div></body></html>"
}

// EdgeScript returns the nakika.js the Na Kika port publishes: dynamic
// registration and profile requests are handled entirely at the edge against
// replicated hard state, so only static misses reach the origin.
func EdgeScript(originHost string) string {
	return `
// SPECweb99 port: user registrations and profiles in replicated hard state.
var reg = new Policy();
reg.url = [ "` + originHost + `/cgi-bin/register" ];
reg.onRequest = function() {
	var user = Request.param("user");
	if (user == null) { Request.terminate(400); return; }
	State.put("user:" + user, JSON.stringify({ name: user, ads: user.length % 360 }));
	Response.setHeader("Content-Type", "text/html");
	Response.write("<html><body><h1>SPECweb99-like</h1><p>registered</p><p>user=" + user + "</p></body></html>");
};
reg.register();

var prof = new Policy();
prof.url = [ "` + originHost + `/cgi-bin/profile" ];
prof.onRequest = function() {
	var user = Request.param("user");
	var data = State.get("user:" + user);
	Response.setHeader("Content-Type", "text/html");
	if (data == null) {
		Response.write("<html><body><p>unknown-user</p></body></html>");
	} else {
		var u = JSON.parse(data);
		Response.write("<html><body><h1>SPECweb99-like</h1><p>profile ads=" + u.ads + "</p><p>user=" + user + "</p></body></html>");
	}
};
prof.register();

// Site-wide checkpoint: a maintenance step only one edge node may run at a
// time. The per-site lease arbitrates who runs it, and the counter is
// written under the holdership's fencing token, so a node that loses the
// lease mid-step cannot clobber its successor's checkpoint.
var chk = new Policy();
chk.url = [ "` + originHost + `/cgi-bin/checkpoint" ];
chk.onRequest = function() {
	Response.setHeader("Content-Type", "text/plain");
	var token = Lease.acquire("specweb-checkpoint", 5000);
	if (token == null) { Response.write("busy"); return; }
	var n = State.get("checkpoint:count");
	n = (n == null) ? 1 : JSON.parse(n) + 1;
	Lease.put("checkpoint:count", JSON.stringify(n), "specweb-checkpoint", token);
	Lease.release("specweb-checkpoint", token);
	Response.write("checkpoint " + n);
};
chk.register();

// Long-running per-site job: "begin" takes the lease once and hands the
// fencing token to the client, which carries it through every "step"
// write. A node that dies mid-job leaves the lease to the failure
// detector or the TTL; whoever begins next is a new holdership with a
// higher token, and the dead holder's stale token can never write over
// the successor's steps — Lease.put throws, and the script reports
// "fenced" instead of silently continuing.
var job = new Policy();
job.url = [ "` + originHost + `/cgi-bin/job" ];
job.onRequest = function() {
	Response.setHeader("Content-Type", "text/plain");
	var op = Request.param("op");
	if (op == "begin") {
		var ttl = Request.param("ttl");
		var token = Lease.acquire("specweb-job", ttl == null ? 5000 : JSON.parse(ttl));
		if (token == null) { Response.write("busy"); return; }
		Response.write("token " + token);
		return;
	}
	if (op == "step") {
		var token = JSON.parse(Request.param("token"));
		var seq = Request.param("seq");
		try {
			Lease.put("job:cursor", JSON.stringify({ seq: seq, token: token }), "specweb-job", token);
			Response.write("step " + seq + " ok");
		} catch (e) {
			Response.write("fenced");
		}
		return;
	}
	if (op == "peek") {
		var cur = State.get("job:cursor"); Response.write(cur == null ? "none" : cur); return;
	}
	Request.terminate(400);
};
job.register();
`
}
