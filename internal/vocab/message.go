package vocab

import (
	"strings"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// bodyChunkSize is the size of the chunks Request.read() and Response.read()
// hand to scripts, mirroring the prototype's bucket-brigade-sized buffers
// (the example in Figure 2 reads the body in chunks to enable cut-through
// routing).
const bodyChunkSize = 8 * 1024

// messages is a context's Request and Response: the two script objects
// and the Getters of their data properties, made at the context's first
// bind and kept for its life, and the run's messages they stand for. Their
// natives are shared by every context and reach the messages through the
// context they are called in, and a data property is read from the message
// when a script reads it, so a bind re-points this struct and allocates
// nothing.
type messages struct {
	req      *httpmsg.Request
	reqObj   *script.Object
	reqRead  int // bytes of req.Body Request.read has handed out
	resp     *httpmsg.Response
	respObj  *script.Object
	respRead int  // bytes of resp.Body Response.read has handed out
	written  bool // whether Response.write replaced the body yet
	// reqProps are Request's data properties, and status and contentType
	// Response's: Getters made with the messages, which read the bound
	// message when a script reads them (undefined with none bound).
	reqProps            []property
	status, contentType script.Getter
}

// property is a data property of Request: its name and its Getter.
type property struct {
	name string
	get  script.Getter
}

// messagesOf returns ctx's messages, making them at the first call.
func messagesOf(ctx *script.Context) *messages {
	if m, ok := ctx.Bindings.(*messages); ok {
		return m
	}
	m := newMessages()
	ctx.Bindings = m
	return m
}

// newMessages makes a context's messages, with the Getters of their data
// properties.
func newMessages() *messages {
	m := &messages{}
	req := func(get func(r *httpmsg.Request) string) script.Getter {
		return func() script.Value {
			if m.req == nil {
				return script.Undefined{}
			}
			return script.Str(get(m.req))
		}
	}
	m.reqProps = []property{
		{"method", req(func(r *httpmsg.Request) string { return r.Method })},
		{"url", req(func(r *httpmsg.Request) string { return r.URL.String() })},
		{"host", req((*httpmsg.Request).Host)},
		{"path", req((*httpmsg.Request).Path)},
		{"query", req(func(r *httpmsg.Request) string { return r.URL.RawQuery })},
		{"clientIP", req(func(r *httpmsg.Request) string { return r.ClientIP })},
	}
	m.status = func() script.Value {
		if m.resp == nil {
			return script.Undefined{}
		}
		return script.Int(m.resp.Status)
	}
	m.contentType = func() script.Value {
		if m.resp == nil {
			return script.Undefined{}
		}
		return script.Str(m.resp.ContentType())
	}
	return m
}

// requestMethod makes the Request native name, which runs fn against the
// request the calling context's Request stands for.
func requestMethod(name string, fn func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error)) *script.Native {
	return &script.Native{Name: "Request." + name, Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		m, _ := c.Bindings.(*messages)
		if m == nil || m.req == nil {
			return nil, script.ThrowString("Request." + name + ": no request in this run")
		}
		return fn(m, m.req, args)
	}}
}

// responseMethod makes the Response native name, which runs fn against the
// response the calling context's Response stands for.
func responseMethod(name string, fn func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error)) *script.Native {
	return &script.Native{Name: "Response." + name, Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		m, _ := c.Bindings.(*messages)
		if m == nil || m.resp == nil {
			return nil, script.ThrowString("Response." + name + ": no response in this run")
		}
		return fn(m, m.resp, args)
	}}
}

// BindRequest exposes req to ctx as the global Request object. Mutations the
// script performs through the vocabulary (setHeader, setURL, terminate) are
// applied to req directly, so the pipeline observes them. A context keeps
// one Request object: each bind re-points it at req and gives it back the
// properties a fresh one has, so a script that kept Request in a global
// sees the current run's request. Its data properties (method, url, host,
// path, query, clientIP) are read from req when the script reads them.
func BindRequest(ctx *script.Context, req *httpmsg.Request) {
	m := messagesOf(ctx)
	if m.reqObj == nil {
		m.reqObj = script.NewObject()
		m.reqObj.ClassName = "Request"
	}
	m.req, m.reqRead = req, 0
	m.reqObj.Clear()
	refreshRequest(m)
	for _, n := range requestNatives {
		m.reqObj.Set(strings.TrimPrefix(n.Name, "Request."), n)
	}
	ctx.DefineGlobal("Request", m.reqObj)
}

// refreshRequest binds Request's data properties to their Getters, in
// place of what a script assigned to them.
func refreshRequest(m *messages) {
	for _, p := range m.reqProps {
		m.reqObj.Set(p.name, p.get)
	}
}

// requestNatives are Request's methods, in the order a fresh Request lists
// them after its data properties.
var requestNatives = []*script.Native{
	requestMethod("read", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if m.reqRead >= len(req.Body) {
			return script.NullValue(), nil
		}
		end := min(m.reqRead+bodyChunkSize, len(req.Body))
		chunk := script.NewByteArray(req.Body[m.reqRead:end])
		m.reqRead = end
		return chunk, nil
	}),
	requestMethod("body", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		return script.NewByteArray(req.Body), nil
	}),
	requestMethod("getHeader", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		v := req.Header.Get(script.ToString(args[0]))
		if v == "" {
			return script.NullValue(), nil
		}
		return script.Str(v), nil
	}),
	requestMethod("setHeader", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Undefined{}, nil
		}
		req.Header.Set(script.ToString(args[0]), script.ToString(args[1]))
		return script.Undefined{}, nil
	}),
	requestMethod("removeHeader", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			req.Header.Del(script.ToString(args[0]))
		}
		return script.Undefined{}, nil
	}),
	requestMethod("cookie", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		v, ok := req.Cookie(script.ToString(args[0]))
		if !ok {
			return script.NullValue(), nil
		}
		return script.Str(v), nil
	}),
	requestMethod("param", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		v := req.Query(script.ToString(args[0]))
		if v == "" {
			return script.NullValue(), nil
		}
		return script.Str(v), nil
	}),
	requestMethod("setURL", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, script.ThrowString("Request.setURL: missing URL")
		}
		if err := req.SetURL(script.ToString(args[0])); err != nil {
			return nil, script.ThrowString("Request.setURL: " + err.Error())
		}
		refreshRequest(m)
		return script.Undefined{}, nil
	}),
	requestMethod("setMethod", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Undefined{}, nil
		}
		req.Method = strings.ToUpper(script.ToString(args[0]))
		refreshRequest(m)
		return script.Undefined{}, nil
	}),
	requestMethod("terminate", func(m *messages, req *httpmsg.Request, args []script.Value) (script.Value, error) {
		status := 403
		if len(args) > 0 {
			status = script.ToInt(args[0])
		}
		resp := req.Terminate(status)
		if len(args) > 1 {
			resp.SetBodyString(script.ToString(args[1]))
		}
		return script.Undefined{}, nil
	}),
}

// BindResponse exposes resp to ctx as the global Response object. A script
// that writes a body through Response.write replaces the instance; setHeader
// and setStatus mutate resp directly. Like Request, a context keeps one
// Response object and each bind re-points it, and its data properties
// (status, contentType) are read from resp when the script reads them.
func BindResponse(ctx *script.Context, resp *httpmsg.Response) {
	m := messagesOf(ctx)
	if m.respObj == nil {
		m.respObj = script.NewObject()
		m.respObj.ClassName = "Response"
	}
	m.resp, m.respRead, m.written = resp, 0, false
	obj := m.respObj
	obj.Clear()
	obj.Set("status", m.status)
	obj.Set("contentType", m.contentType)
	for _, n := range responseNatives {
		obj.Set(strings.TrimPrefix(n.Name, "Response."), n)
	}
	ctx.DefineGlobal("Response", obj)
}

// materialize pulls a streamed (chunked large-object) body into memory the
// moment a script actually touches it; header-only scripts never trigger
// this, which is what keeps large responses streaming.
func materialize(resp *httpmsg.Response) error {
	if err := resp.Materialize(); err != nil {
		return script.ThrowString("Response: materialize body: " + err.Error())
	}
	return nil
}

// responseNatives are Response's methods, in the order a fresh Response
// lists them after its data properties.
var responseNatives = []*script.Native{
	responseMethod("read", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if err := materialize(resp); err != nil {
			return nil, err
		}
		if m.respRead >= len(resp.Body) {
			return script.NullValue(), nil
		}
		end := min(m.respRead+bodyChunkSize, len(resp.Body))
		chunk := script.NewByteArray(resp.Body[m.respRead:end])
		m.respRead = end
		return chunk, nil
	}),
	responseMethod("body", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if err := materialize(resp); err != nil {
			return nil, err
		}
		return script.NewByteArray(resp.Body), nil
	}),
	responseMethod("write", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Undefined{}, nil
		}
		// The first write replaces the instance body with a copy; later
		// ones append to it.
		var body []byte
		if m.written {
			body = resp.Body
		}
		switch b := args[0].(type) {
		case *script.ByteArray:
			body = append(body, b.Data...)
		default:
			body = append(body, script.ToString(b)...)
		}
		resp.SetBody(body)
		m.written = true
		resp.Generated = true
		return script.Undefined{}, nil
	}),
	responseMethod("getHeader", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.NullValue(), nil
		}
		v := resp.Header.Get(script.ToString(args[0]))
		if v == "" {
			return script.NullValue(), nil
		}
		return script.Str(v), nil
	}),
	responseMethod("setHeader", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.Undefined{}, nil
		}
		name := script.ToString(args[0])
		resp.Header.Set(name, script.ToString(args[1]))
		if strings.EqualFold(name, "Content-Type") {
			m.respObj.Set("contentType", m.contentType)
		}
		return script.Undefined{}, nil
	}),
	responseMethod("removeHeader", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			resp.Header.Del(script.ToString(args[0]))
		}
		return script.Undefined{}, nil
	}),
	responseMethod("setStatus", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			resp.Status = script.ToInt(args[0])
			m.respObj.Set("status", m.status)
		}
		return script.Undefined{}, nil
	}),
	responseMethod("setMaxAge", func(m *messages, resp *httpmsg.Response, args []script.Value) (script.Value, error) {
		if len(args) > 0 {
			resp.SetMaxAge(script.ToInt(args[0]))
		}
		return script.Undefined{}, nil
	}),
}

// ClearMessages ends a run's hold on its messages: ctx's Request and
// Response stand for nothing and keep no property until the next bind, and
// their natives throw until then, so a pooled context keeps no request or
// response alive between runs, and a native or object a script kept cannot
// reach a message after its run (the request may be back in its pool).
func ClearMessages(ctx *script.Context) {
	m, _ := ctx.Bindings.(*messages)
	if m == nil {
		return
	}
	m.req, m.resp = nil, nil
	if m.reqObj != nil {
		m.reqObj.Clear()
	}
	if m.respObj != nil {
		m.respObj.Clear()
	}
}

// NewGeneratedResponse builds an empty 200 response ready for a script's
// onRequest handler to fill via Response.write; the pipeline binds it before
// invoking handlers so that handlers creating responses from scratch have a
// Response object to write into.
func NewGeneratedResponse() *httpmsg.Response {
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	return resp
}
