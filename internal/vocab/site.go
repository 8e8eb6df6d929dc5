package vocab

import (
	"net/url"
	"strings"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// Install binds every host-backed vocabulary (System, Cache, Fetch, State,
// Lease, Log) into ctx for a pipeline execution owned by site. The Request
// and Response vocabularies are bound separately per message by BindRequest
// and BindResponse since they change as the pipeline progresses.
//
// This is the one place a site is bound: every native that reaches a site's
// space (System.usage and System.log, Cache, State, Lease and Log) is built
// here and closes over site, and no other code in the module calls a Host
// method that takes one (TestOneSiteBinding).
func Install(ctx *script.Context, host Host, site string) {
	sys := systemObject(host)
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

	// Cache: the proxy cache under script-chosen keys, partitioned by site.
	cacheObj := script.NewObject()
	cacheObj.ClassName = "Cache"
	cacheObj.Set("get", &script.Native{Name: "Cache.get", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		resp := host.CacheGet(site, script.ToString(args[0]))
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
		host.CachePut(site, key, resp)
		return script.Boolean(true), nil
	}})
	ctx.DefineGlobal("Cache", cacheObj)

	installFetch(ctx, host)

	// State: hard state, partitioned by site.
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
	// The paper's script-level messaging (propagate and onMessage) has no
	// messaging service behind it: hard state replicates as versioned
	// records in the node, below the scripts. The name stays bound so a
	// script that calls it gets an error it can catch.
	state.Set("propagate", &script.Native{Name: "State.propagate", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		return nil, script.ThrowString("State.propagate: no messaging service configured")
	}})
	ctx.DefineGlobal("State", state)

	// Lease: per-site distributed leases with fencing tokens. acquire
	// returns the token (or null when a live holder has the lease); put
	// writes hard state under the token and throws once the holdership is
	// deposed, so a script cannot silently keep writing after losing its
	// lease.
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

	// Log: write adds a line to the site's access log, and postTo names the
	// URL the node periodically posts the site's lines to (Section 3.3).
	// Until a script names one, the node keeps no lines for the site. A site
	// may only have its log posted to its own host, so a script cannot make
	// the node send requests elsewhere on its behalf.
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

	installImageTransformer(ctx)
	installXML(ctx)
}
