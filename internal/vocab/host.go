// Package vocab implements Na Kika's vocabularies: the native-code libraries
// exposed to scripts as global objects (Section 3.1 of the paper).
//
// Vocabularies are the only way for sandboxed scripts to reach beyond pure
// computation. The set provided here mirrors the paper's list: managing HTTP
// messages and state, accessing URL components, cookies, and the proxy
// cache, fetching other web resources, managing hard state, processing
// regular expressions (via the RegExp builtin in the script package), parsing
// and transforming XML documents, and transcoding images.
package vocab

import (
	"sync"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
	"nakika/internal/trace"
)

// Host is the interface the edge node provides to vocabularies. All methods
// must be safe for concurrent use; vocabularies never retain references to a
// Host beyond a single pipeline execution. A method that reaches a site's
// space takes the site, and only Install (site.go) calls those.
type Host interface {
	// Fetch retrieves another web resource on behalf of a script (the
	// server-side administrative control stage interposes on these fetches
	// at the pipeline level, not here).
	Fetch(req *httpmsg.Request) (*httpmsg.Response, error)
	// CacheGet and CachePut give scripts access to the proxy cache, keyed by
	// arbitrary strings and partitioned by site (the image transcoding
	// extension caches transformed content this way).
	CacheGet(site, key string) *httpmsg.Response
	CachePut(site, key string, resp *httpmsg.Response)
	// IsLocalClient reports whether ip belongs to the node's hosting
	// organization (System.isLocal in Figure 5).
	IsLocalClient(ip string) bool
	// Usage returns the owning site's normalized congestion contribution for
	// the named resource ("cpu", "memory", "bandwidth", "running-time",
	// "bytes-transferred"); scripts use it to adapt to congestion.
	Usage(site, resource string) float64
	// Log records a message in the site's edge-side access log, which keeps
	// entries only for a site whose script named a post URL; SetLogURL names
	// it (Log.postTo, which has checked that the URL is on the site's host).
	Log(site, message string)
	SetLogURL(site, postURL string)
	// Hard state operations, partitioned by site. The leading act is the
	// requesting pipeline's activity record (nil when no request is being
	// traced): the host stamps hedged reads, RPC fan-out, and lease
	// outcomes onto it, and propagates act.ID over any RPC the operation
	// fans out into.
	StateGet(act *trace.Act, site, key string) (string, bool)
	StatePut(act *trace.Act, site, key, value string) error
	StateDelete(act *trace.Act, site, key string) error
	StateKeys(act *trace.Act, site string) []string
	// Distributed lease operations, partitioned by site (see
	// internal/core/lease.go). LeaseAcquire takes or renews the named
	// lease for this node (ttl <= 0 means the node default) and returns
	// the holdership's fencing token; FencedStatePut writes hard state
	// under that token, rejected once a newer holdership has written.
	LeaseAcquire(act *trace.Act, site, name string, ttl time.Duration) (uint64, bool)
	LeaseRenew(act *trace.Act, site, name string, token uint64, ttl time.Duration) bool
	LeaseRelease(act *trace.Act, site, name string, token uint64) bool
	FencedStatePut(act *trace.Act, site, key, value, name string, token uint64) error
	// NodeName identifies this edge node (diagnostics, Via headers).
	NodeName() string
	// Now returns the current (possibly virtual) time.
	Now() time.Time
}

// NopHost is a Host implementation whose operations all succeed trivially;
// tests and the quickstart example embed it and override what they need.
type NopHost struct{}

// Fetch returns 502 for every request.
func (NopHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	return httpmsg.NewTextResponse(502, "no upstream configured"), nil
}

// CacheGet always misses.
func (NopHost) CacheGet(site, key string) *httpmsg.Response { return nil }

// CachePut discards the response.
func (NopHost) CachePut(site, key string, resp *httpmsg.Response) {}

// IsLocalClient treats loopback and RFC1918 prefixes as local.
func (NopHost) IsLocalClient(ip string) bool {
	return ip == "127.0.0.1" || ip == "::1" ||
		hasPrefix(ip, "10.") || hasPrefix(ip, "192.168.")
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Usage reports zero consumption.
func (NopHost) Usage(site, resource string) float64 { return 0 }

// Log discards the message.
func (NopHost) Log(site, message string) {}

// SetLogURL discards the URL.
func (NopHost) SetLogURL(site, postURL string) {}

// StateGet always misses.
func (NopHost) StateGet(act *trace.Act, site, key string) (string, bool) { return "", false }

// StatePut discards the value.
func (NopHost) StatePut(act *trace.Act, site, key, value string) error { return nil }

// StateDelete is a no-op.
func (NopHost) StateDelete(act *trace.Act, site, key string) error { return nil }

// StateKeys returns nothing.
func (NopHost) StateKeys(act *trace.Act, site string) []string { return nil }

// LeaseAcquire always grants token 1.
func (NopHost) LeaseAcquire(act *trace.Act, site, name string, ttl time.Duration) (uint64, bool) {
	return 1, true
}

// LeaseRenew always succeeds.
func (NopHost) LeaseRenew(act *trace.Act, site, name string, token uint64, ttl time.Duration) bool {
	return true
}

// LeaseRelease always succeeds.
func (NopHost) LeaseRelease(act *trace.Act, site, name string, token uint64) bool { return true }

// FencedStatePut discards the value.
func (NopHost) FencedStatePut(act *trace.Act, site, key, value, name string, token uint64) error {
	return nil
}

// NodeName returns a placeholder name.
func (NopHost) NodeName() string { return "nop-node" }

// Now returns the wall-clock time.
func (NopHost) Now() time.Time { return time.Now() }

// actOf extracts the activity record the pipeline attached to the running
// handler's context; nil during stage evaluation or untraced executions.
// Host methods and the Act recorders are nil-safe, so natives pass the
// result through unconditionally.
func actOf(c *script.Context) *trace.Act {
	a, _ := c.Act.(*trace.Act)
	return a
}

// Registry collects the policy objects a stage script registers while it is
// being evaluated (the register() call on script-level Policy objects).
// Registration is guarded by a mutex because forked pool contexts share the
// Policy constructor native: a handler calling register() at request time
// must not race with another pipeline.
type Registry struct {
	mu      sync.Mutex
	Objects []*script.Object
}

// Add appends a registered policy object.
func (r *Registry) Add(obj *script.Object) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Objects = append(r.Objects, obj)
}

// Registered returns the policy objects registered so far, in order.
func (r *Registry) Registered() []*script.Object {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*script.Object, len(r.Objects))
	copy(out, r.Objects)
	return out
}

// InstallPolicyConstructor defines the Policy constructor in ctx. Policies
// created with new Policy() gain a register() method that appends the object
// to reg.
func InstallPolicyConstructor(ctx *script.Context, reg *Registry) {
	ctx.DefineGlobal("Policy", &script.Native{
		Name: "Policy",
		Construct: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
			obj := script.NewObject()
			obj.ClassName = "Policy"
			obj.Set("register", &script.Native{Name: "Policy.register", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
				o, ok := this.(*script.Object)
				if !ok {
					return nil, script.ThrowString("Policy.register: receiver is not a policy object")
				}
				reg.Add(o)
				return script.Undefined{}, nil
			}})
			return obj, nil
		},
		Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
			return nil, script.ThrowString("Policy must be invoked with new")
		},
	})
}

// ValidationContext builds the throwaway context the deployment plane
// validates script bundles in: every vocabulary a stage context gets,
// bound to a NopHost, plus the handler-time Request/Response globals bound
// to placeholder messages. Its GlobalNames are exactly the vocabulary a
// published script may reference, so a bundle's free identifiers can be
// checked against it; and evaluating registration-time code in it reaches
// only no-op host operations, so a canary compile cannot touch the node's
// real cache, state, or leases.
func ValidationContext(site string, limits script.Limits) (*script.Context, *Registry) {
	ctx := script.NewContext(limits)
	reg := &Registry{}
	InstallPolicyConstructor(ctx, reg)
	Install(ctx, NopHost{}, site)
	BindRequest(ctx, httpmsg.MustRequest("GET", "http://"+site+"/"))
	BindResponse(ctx, NewGeneratedResponse())
	// The implicit-policy globals scripts assign (onRequest = ...) are
	// assignment-bound, not references, but scripts may also read them
	// back; predefine them so such reads pass the vocabulary check.
	ctx.DefineGlobal("onRequest", script.Undefined{})
	ctx.DefineGlobal("onResponse", script.Undefined{})
	ctx.DefineGlobal("nextStages", script.Undefined{})
	return ctx, reg
}

// systemObject builds the System object's natives that reach no site's
// space; Install adds usage and log.
func systemObject(host Host) *script.Object {
	sys := script.NewObject()
	sys.ClassName = "System"
	sys.Set("nodeName", script.Str(host.NodeName()))
	sys.Set("isLocal", &script.Native{Name: "System.isLocal", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Boolean(false), nil
		}
		return script.Boolean(host.IsLocalClient(script.ToString(args[0]))), nil
	}})
	sys.Set("time", &script.Native{Name: "System.time", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		return script.Num(float64(host.Now().UnixMilli())), nil
	}})
	return sys
}

func installFetch(ctx *script.Context, host Host) {
	fetch := &script.Native{Name: "Fetch.get", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, script.ThrowString("Fetch.get: missing URL")
		}
		method := "GET"
		if len(args) > 1 {
			method = script.ToString(args[1])
		}
		req, err := httpmsg.NewRequest(method, script.ToString(args[0]))
		if err != nil {
			return nil, script.ThrowString("Fetch.get: " + err.Error())
		}
		// Sub-fetches issued by a traced request carry its trace id, so
		// cross-resource fan-out shows up under one id in the trace dump.
		if act := actOf(c); act != nil {
			req.TraceID = act.ID
		}
		if len(args) > 2 {
			switch body := args[2].(type) {
			case *script.ByteArray:
				req.Body = append([]byte(nil), body.Data...)
			default:
				if !script.IsNullish(body) {
					req.Body = []byte(script.ToString(body))
				}
			}
		}
		resp, err := host.Fetch(req)
		if err != nil {
			return nil, script.ThrowString("Fetch.get: " + err.Error())
		}
		return responseToScript(resp), nil
	}}
	fetchObj := script.NewObject()
	fetchObj.ClassName = "Fetch"
	fetchObj.Set("get", fetch)
	ctx.DefineGlobal("Fetch", fetchObj)
	// The bare function form matches the paper's "fetching other web
	// resources" vocabulary usage.
	ctx.DefineGlobal("fetch", fetch)
}

// responseToScript converts a pipeline response into the plain script object
// returned by Cache.get and Fetch.get: { status, headers, body, contentType }.
// A streamed body is materialized: the script asked for the whole response.
// So is a cached one, which makes the script's body a private copy.
func responseToScript(resp *httpmsg.Response) *script.Object {
	resp.Materialize()
	o := script.NewObject()
	o.Set("status", script.Int(resp.Status))
	headers := script.NewObject()
	prev := ""
	resp.Header.Each(func(k, v string) {
		if k != prev {
			headers.Set(k, script.Str(v))
			prev = k
		}
	})
	o.Set("headers", headers)
	o.Set("contentType", script.Str(resp.ContentType()))
	o.Set("body", script.NewByteArray(resp.Body))
	o.Set("fromCache", script.Boolean(resp.FromCache))
	return o
}
