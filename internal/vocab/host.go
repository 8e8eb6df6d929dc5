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
	"net/url"
	"strings"
	"sync"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
	"nakika/internal/trace"
)

// Host is the interface the edge node provides to vocabularies. All methods
// must be safe for concurrent use; vocabularies never retain references to a
// Host beyond a single pipeline execution.
type Host interface {
	// Fetch retrieves another web resource on behalf of a script (the
	// server-side administrative control stage interposes on these fetches
	// at the pipeline level, not here).
	Fetch(req *httpmsg.Request) (*httpmsg.Response, error)
	// CacheGet and CachePut give scripts access to the proxy cache, keyed by
	// arbitrary strings (the image transcoding extension caches transformed
	// content this way).
	CacheGet(key string) *httpmsg.Response
	CachePut(key string, resp *httpmsg.Response)
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
	// Propagate sends a replication message to the site's update channel on
	// other nodes via the reliable messaging layer.
	Propagate(site, message string) error
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
func (NopHost) CacheGet(key string) *httpmsg.Response { return nil }

// CachePut discards the response.
func (NopHost) CachePut(key string, resp *httpmsg.Response) {}

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

// Propagate discards the message.
func (NopHost) Propagate(site, message string) error { return nil }

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

// Install binds every host-backed vocabulary (System, Cache, Fetch, State,
// Log) into ctx for a pipeline execution owned by site. The Request and
// Response vocabularies are bound separately per message by BindRequest and
// BindResponse since they change as the pipeline progresses.
func Install(ctx *script.Context, host Host, site string) {
	installSystem(ctx, host, site)
	installCacheVocabulary(ctx, host)
	installFetch(ctx, host)
	installState(ctx, host, site)
	installLease(ctx, host, site)
	installLog(ctx, host, site)
	installImageTransformer(ctx)
	installXML(ctx)
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

func installSystem(ctx *script.Context, host Host, site string) {
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
	sys.Set("usage", &script.Native{Name: "System.usage", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		resource := "cpu"
		if len(args) > 0 {
			resource = script.ToString(args[0])
		}
		return script.Num(host.Usage(site, resource)), nil
	}})
	sys.Set("log", &script.Native{Name: "System.log", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			host.Log(site, script.ToString(args[0]))
		}
		return script.Undefined{}, nil
	}})
	ctx.DefineGlobal("System", sys)
}

func installCacheVocabulary(ctx *script.Context, host Host) {
	cacheObj := script.NewObject()
	cacheObj.ClassName = "Cache"
	cacheObj.Set("get", &script.Native{Name: "Cache.get", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		resp := host.CacheGet(script.ToString(args[0]))
		if resp == nil {
			return script.NullValue(), nil
		}
		return responseToScript(resp), nil
	}})
	cacheObj.Set("put", &script.Native{Name: "Cache.put", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Boolean(false), nil
		}
		key := script.ToString(args[0])
		resp := httpmsg.NewResponse(200)
		switch body := args[1].(type) {
		case *script.ByteArray:
			resp.SetBody(append([]byte(nil), body.Data...))
		default:
			resp.SetBodyString(script.ToString(body))
		}
		resp.Header.Set("Content-Type", "application/octet-stream")
		ttl := 60
		if len(args) > 2 {
			ttl = script.ToInt(args[2])
		}
		if len(args) > 3 {
			resp.Header.Set("Content-Type", script.ToString(args[3]))
		}
		resp.SetMaxAge(ttl)
		host.CachePut(key, resp)
		return script.Boolean(true), nil
	}})
	ctx.DefineGlobal("Cache", cacheObj)
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

func installState(ctx *script.Context, host Host, site string) {
	state := script.NewObject()
	state.ClassName = "State"
	state.Set("get", &script.Native{Name: "State.get", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		v, ok := host.StateGet(actOf(c), site, script.ToString(args[0]))
		if !ok {
			return script.NullValue(), nil
		}
		return script.Str(v), nil
	}})
	state.Set("put", &script.Native{Name: "State.put", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Boolean(false), nil
		}
		if err := host.StatePut(actOf(c), site, script.ToString(args[0]), script.ToString(args[1])); err != nil {
			return nil, script.ThrowString("State.put: " + err.Error())
		}
		return script.Boolean(true), nil
	}})
	state.Set("remove", &script.Native{Name: "State.remove", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			if err := host.StateDelete(actOf(c), site, script.ToString(args[0])); err != nil {
				return nil, script.ThrowString("State.remove: " + err.Error())
			}
		}
		return script.Undefined{}, nil
	}})
	state.Set("keys", &script.Native{Name: "State.keys", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		arr := script.NewArray()
		for _, k := range host.StateKeys(actOf(c), site) {
			arr.Elems = append(arr.Elems, script.Str(k))
		}
		return arr, nil
	}})
	state.Set("propagate", &script.Native{Name: "State.propagate", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Boolean(false), nil
		}
		if err := host.Propagate(site, script.ToString(args[0])); err != nil {
			return nil, script.ThrowString("State.propagate: " + err.Error())
		}
		return script.Boolean(true), nil
	}})
	ctx.DefineGlobal("State", state)
}

// installLease binds the Lease vocabulary: per-site distributed leases
// with fencing tokens. acquire returns the token (or null when a live
// holder has the lease); put writes hard state under the token and throws
// once the holdership is deposed, so a script cannot silently keep
// writing after losing its lease.
func installLease(ctx *script.Context, host Host, site string) {
	leaseObj := script.NewObject()
	leaseObj.ClassName = "Lease"
	ttlArg := func(args []script.Value, idx int) time.Duration {
		if len(args) > idx {
			return time.Duration(script.ToInt(args[idx])) * time.Millisecond
		}
		return 0
	}
	leaseObj.Set("acquire", &script.Native{Name: "Lease.acquire", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, script.ThrowString("Lease.acquire: missing lease name")
		}
		token, ok := host.LeaseAcquire(actOf(c), site, script.ToString(args[0]), ttlArg(args, 1))
		if !ok {
			return script.NullValue(), nil
		}
		return script.Num(float64(token)), nil
	}})
	leaseObj.Set("renew", &script.Native{Name: "Lease.renew", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Boolean(false), nil
		}
		name, token := script.ToString(args[0]), uint64(script.ToInt(args[1]))
		return script.Boolean(host.LeaseRenew(actOf(c), site, name, token, ttlArg(args, 2))), nil
	}})
	leaseObj.Set("release", &script.Native{Name: "Lease.release", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Boolean(false), nil
		}
		return script.Boolean(host.LeaseRelease(actOf(c), site, script.ToString(args[0]), uint64(script.ToInt(args[1])))), nil
	}})
	leaseObj.Set("put", &script.Native{Name: "Lease.put", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 4 {
			return nil, script.ThrowString("Lease.put: need key, value, lease name, token")
		}
		key, value := script.ToString(args[0]), script.ToString(args[1])
		name, token := script.ToString(args[2]), uint64(script.ToInt(args[3]))
		if err := host.FencedStatePut(actOf(c), site, key, value, name, token); err != nil {
			return nil, script.ThrowString("Lease.put: " + err.Error())
		}
		return script.Boolean(true), nil
	}})
	ctx.DefineGlobal("Lease", leaseObj)
}

// installLog binds the Log vocabulary: write adds a line to the site's
// access log, and postTo names the URL the node periodically posts the
// site's lines to (Section 3.3). Until a script names one, the node keeps no
// lines for the site. A site may only have its log posted to its own host,
// so a script cannot make the node send requests elsewhere on its behalf.
func installLog(ctx *script.Context, host Host, site string) {
	logObj := script.NewObject()
	logObj.ClassName = "Log"
	logObj.Set("write", &script.Native{Name: "Log.write", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			host.Log(site, script.ToString(args[0]))
		}
		return script.Undefined{}, nil
	}})
	logObj.Set("postTo", &script.Native{Name: "Log.postTo", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, script.ThrowString("Log.postTo: missing URL")
		}
		raw := script.ToString(args[0])
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || !strings.EqualFold(u.Hostname(), site) {
			return nil, script.ThrowString("Log.postTo: " + raw + " is not an http(s) URL on " + site)
		}
		host.SetLogURL(site, raw)
		return script.Undefined{}, nil
	}})
	ctx.DefineGlobal("Log", logObj)
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
	for k := range resp.Header {
		headers.Set(k, script.Str(resp.Header.Get(k)))
	}
	o.Set("headers", headers)
	o.Set("contentType", script.Str(resp.ContentType()))
	o.Set("body", script.NewByteArray(resp.Body))
	o.Set("fromCache", script.Boolean(resp.FromCache))
	return o
}
